// Package relation is a hermetic fixture stub standing in for
// qagview/internal/relation: cowcheck matches types by package-path segment,
// so only the shapes matter.
package relation

type Dict struct{ m map[string]int32 }

func NewDict() *Dict { return &Dict{m: make(map[string]int32)} }

// ID interns (mutates); Lookup is read-only; Clone takes ownership.
func (d *Dict) ID(v string) int32 { return 0 }

func (d *Dict) Lookup(v string) (int32, bool) { return 0, false }

func (d *Dict) Clone() *Dict { return &Dict{m: d.m} }

type Column struct {
	Name  string
	Str   []string
	Int   []int64
	Float []float64
}

type Relation struct{ cols []Column }

func (r *Relation) Column(i int) *Column { return &r.cols[i] }

func (r *Relation) ColumnByName(name string) (*Column, bool) { return &r.cols[0], true }

type ColDict struct {
	Codes []int32
	Card  int
}

func (r *Relation) DictCodes(col int) *ColDict { return &ColDict{} }

type ColGroups struct {
	Dict   *ColDict
	Starts []int32
	Rows   []int32
}

func (r *Relation) CodeGroups(col int) *ColGroups { return &ColGroups{} }

// Append is the owning package's in-place extension: exempt from rule 4.
func (r *Relation) Append(batch []Column) *Relation {
	next := &Relation{cols: append([]Column(nil), r.cols...)}
	for i := range next.cols {
		next.cols[i].Str = append(next.cols[i].Str, batch[i].Str...)
	}
	d := r.DictCodes(0)
	d.Codes = append(d.Codes, 1)
	r.Column(0).Str[0] = "x"
	return next
}

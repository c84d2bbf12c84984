// Package relation implements the in-memory columnar relation store used as
// the storage substrate of qagview. The paper's prototype materializes joined
// tables (e.g. the MovieLens RatingTable) in PostgreSQL; this package plays
// that role with typed columns and dictionary encoding for categorical
// attributes, which is also the "hash values for fields" optimization of
// Section 6.3 of the paper.
package relation

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind identifies the physical type of a column.
type Kind int

const (
	// KindString is a categorical (text) column.
	KindString Kind = iota
	// KindInt is a 64-bit signed integer column.
	KindInt
	// KindFloat is a float64 column.
	KindFloat
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "text"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Column is a single typed column. Exactly one of Str, Int, Float is
// populated, according to Kind.
type Column struct {
	Name  string
	Kind  Kind
	Str   []string
	Int   []int64
	Float []float64
}

// Len returns the number of rows stored in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case KindString:
		return len(c.Str)
	case KindInt:
		return len(c.Int)
	case KindFloat:
		return len(c.Float)
	default:
		return 0
	}
}

// StringAt renders the value in row i as a string, independent of kind.
func (c *Column) StringAt(i int) string {
	switch c.Kind {
	case KindString:
		return c.Str[i]
	case KindInt:
		return strconv.FormatInt(c.Int[i], 10)
	case KindFloat:
		return strconv.FormatFloat(c.Float[i], 'g', -1, 64)
	default:
		return ""
	}
}

// FloatAt returns the numeric value of row i. Categorical columns return an
// error, since qagview never interprets categories numerically.
func (c *Column) FloatAt(i int) (float64, error) {
	switch c.Kind {
	case KindInt:
		return float64(c.Int[i]), nil
	case KindFloat:
		return c.Float[i], nil
	default:
		return 0, fmt.Errorf("relation: column %q has kind %s, not numeric", c.Name, c.Kind)
	}
}

// StringCol builds a categorical column.
func StringCol(name string, vals []string) Column {
	return Column{Name: name, Kind: KindString, Str: vals}
}

// IntCol builds an integer column.
func IntCol(name string, vals []int64) Column {
	return Column{Name: name, Kind: KindInt, Int: vals}
}

// FloatCol builds a float column.
func FloatCol(name string, vals []float64) Column {
	return Column{Name: name, Kind: KindFloat, Float: vals}
}

// Relation is an immutable named collection of equal-length columns.
type Relation struct {
	name   string
	cols   []Column
	byName map[string]int
	n      int

	// owned marks column arrays no caller holds (Append made them), so a
	// successor may write rows past n into their spare capacity. extended
	// is claimed by the first Append from this relation: only that
	// successor extends the arrays and dictionaries in place.
	owned    bool
	extended atomic.Bool

	// lineage names the line of generations r belongs to. FromColumns
	// starts a new line and the claimed successor of Append continues it;
	// each relation has at most one claimed successor, so the generations
	// sharing a lineage are each a row prefix of the next (see Extends). A
	// second Append from the same relation diverges from the first, so it
	// starts a new line.
	lineage uint64

	// dicts and groups cache per-column dictionary encodings (see DictCodes)
	// and code-grouped row indexes (see CodeGroups), built lazily under
	// dictMu; the first n rows of the column data never change.
	dictMu sync.Mutex
	dicts  []*ColDict
	groups []*ColGroups
}

// FromColumns assembles a relation, validating that column names are unique
// and all columns have the same length.
func FromColumns(name string, cols ...Column) (*Relation, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation %q: no columns", name)
	}
	r := &Relation{name: name, cols: cols, byName: make(map[string]int, len(cols)), n: cols[0].Len(), lineage: lineages.Add(1)}
	for i := range cols {
		c := &cols[i]
		if c.Name == "" {
			return nil, fmt.Errorf("relation %q: column %d has empty name", name, i)
		}
		if _, dup := r.byName[c.Name]; dup {
			return nil, fmt.Errorf("relation %q: duplicate column %q", name, c.Name)
		}
		if c.Len() != r.n {
			return nil, fmt.Errorf("relation %q: column %q has %d rows, want %d", name, c.Name, c.Len(), r.n)
		}
		r.byName[c.Name] = i
	}
	return r, nil
}

// MustFromColumns is FromColumns that panics on error; intended for tests and
// generators with statically correct shapes.
func MustFromColumns(name string, cols ...Column) *Relation {
	r, err := FromColumns(name, cols...)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// NumRows returns the row count.
func (r *Relation) NumRows() int { return r.n }

// NumCols returns the column count.
func (r *Relation) NumCols() int { return len(r.cols) }

// Column returns the i-th column.
func (r *Relation) Column(i int) *Column { return &r.cols[i] }

// ColumnNames returns the names of all columns in declaration order.
func (r *Relation) ColumnNames() []string {
	names := make([]string, len(r.cols))
	for i := range r.cols {
		names[i] = r.cols[i].Name
	}
	return names
}

// ColumnByName returns the named column, or false if absent.
func (r *Relation) ColumnByName(name string) (*Column, bool) {
	i, ok := r.byName[name]
	if !ok {
		return nil, false
	}
	return &r.cols[i], true
}

// ColumnIndex returns the position of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	i, ok := r.byName[name]
	if !ok {
		return -1
	}
	return i
}

// StringAt renders row/column as a string.
func (r *Relation) StringAt(col, row int) string { return r.cols[col].StringAt(row) }

// Append returns a successor relation holding r's rows followed by batch's,
// and leaves r unchanged. batch must match r's columns by name and kind, in
// order, with one length; its slices are copied, never retained. A batch of
// zero rows returns r itself.
//
// The successor shares r's column arrays: the first Append from r writes the
// new rows into their spare capacity, past r's length, where no reader of r
// ever looks. Capacity grows as Go's append grows it (about 1.25x for large
// tables), so a run of appends costs amortized O(batch) each. Two cases copy
// the arrays instead: a second Append from the same r, and the first Append
// from a relation built by FromColumns (or ReadCSV, ReadSnapshot), whose
// caller may still hold the slices. Dictionaries r has already built carry
// over to the first successor, extended over the new rows only.
func (r *Relation) Append(batch []Column) (*Relation, error) {
	if len(batch) != len(r.cols) {
		return nil, fmt.Errorf("relation %q: append has %d columns, want %d", r.name, len(batch), len(r.cols))
	}
	m := batch[0].Len()
	for i := range batch {
		b, c := &batch[i], &r.cols[i]
		if b.Name != c.Name || b.Kind != c.Kind {
			return nil, fmt.Errorf("relation %q: append column %d is %q (%s), want %q (%s)", r.name, i, b.Name, b.Kind, c.Name, c.Kind)
		}
		if b.Len() != m {
			return nil, fmt.Errorf("relation %q: append column %q has %d rows, want %d", r.name, b.Name, b.Len(), m)
		}
	}
	if m == 0 {
		return r, nil
	}
	claimed := r.extended.CompareAndSwap(false, true)
	inPlace := claimed && r.owned
	cols := make([]Column, len(r.cols))
	for i, c := range r.cols {
		switch c.Kind {
		case KindString:
			c.Str = appendRows(c.Str, batch[i].Str, inPlace)
		case KindInt:
			c.Int = appendRows(c.Int, batch[i].Int, inPlace)
		case KindFloat:
			c.Float = appendRows(c.Float, batch[i].Float, inPlace)
		}
		cols[i] = c
	}
	next := &Relation{name: r.name, cols: cols, byName: r.byName, n: r.n + m, owned: true, lineage: r.lineage}
	if !claimed {
		next.lineage = lineages.Add(1)
	} else {
		r.dictMu.Lock()
		dicts := append([]*ColDict(nil), r.dicts...)
		r.dictMu.Unlock()
		for i, d := range dicts {
			if d != nil {
				dicts[i] = d.extend(&cols[i], r.n)
			}
		}
		next.dicts = dicts
	}
	return next, nil
}

// lineages hands out lineage tokens; 0 is never assigned.
var lineages atomic.Uint64

// Lineage marks one generation of a relation: its line of appends and its
// row count. It holds no column data, so keeping a Lineage does not keep
// the generation's arrays alive after the table has moved on.
type Lineage struct {
	line uint64
	rows int
}

// Lineage returns r's mark, for a later Extends.
func (r *Relation) Lineage() Lineage { return Lineage{r.lineage, r.n} }

// Rows returns the marked generation's row count.
func (l Lineage) Rows() int { return l.rows }

// Extends reports whether r descends through Append alone from the
// generation prev marks, so that prev's rows are exactly r's first rows and
// the dictionary codes of those rows agree (codes are assigned in
// first-seen order). A relation extends its own mark. A table rebuilt from
// columns (a fresh load, a snapshot, a CSV) extends nothing, whatever its
// rows, and neither does a second successor of one relation.
func (r *Relation) Extends(prev Lineage) bool {
	return r.lineage == prev.line && r.n >= prev.rows
}

// appendRows appends add to s, writing into s's spare capacity when inPlace
// and into a fresh array otherwise.
func appendRows[T any](s, add []T, inPlace bool) []T {
	if !inPlace {
		s = s[:len(s):len(s)]
	}
	return append(s, add...)
}

package relation

import "math"

// ColDict is the dense dictionary encoding of one column: Codes[i] is the
// code of row i, with codes assigned in first-seen row order, and Card is the
// number of distinct codes. Two rows share a code exactly when their rendered
// values (StringAt) are equal, so grouping on codes is grouping on values:
// integer ids are injective for int columns, float codes key on the value's
// bit pattern with every NaN payload collapsed to one code (all NaNs render
// "NaN"), and ±0 stay distinct (they render "0" and "-0").
//
// The query executor groups and hashes on these codes instead of rendering
// and concatenating strings per row — the "hash values for fields"
// optimization of the paper's Section 6.3 applied to the SQL substrate
// itself.
type ColDict struct {
	Codes []int32
	Card  int

	// The value→code map of the column's kind (the other two stay nil). It
	// outlives the build so that Relation.Append can extend the dictionary
	// over new rows only; first-seen order makes the parent's codes a prefix
	// of the successor's.
	strIDs   map[string]int32
	intIDs   map[int64]int32
	floatIDs map[uint64]int32
}

// canonicalNaN is the single bit pattern all NaN payloads map to, so float
// dictionary codes agree with rendered-string equality (every NaN formats as
// "NaN").
var canonicalNaN = math.Float64bits(math.NaN())

// DictCodes returns the dictionary encoding of column col, building it on
// first use and caching it for the relation's lifetime. A relation's first
// n rows never change, so a cached encoding never goes stale; an appended
// successor inherits it extended over the new rows (see Append). Safe for
// concurrent use; the returned value is shared with later generations and
// must not be modified.
func (r *Relation) DictCodes(col int) *ColDict {
	r.dictMu.Lock()
	defer r.dictMu.Unlock()
	return r.dictCodesLocked(col)
}

func (r *Relation) dictCodesLocked(col int) *ColDict {
	if r.dicts == nil {
		r.dicts = make([]*ColDict, len(r.cols))
	}
	if d := r.dicts[col]; d != nil {
		return d
	}
	d := &ColDict{Codes: make([]int32, 0, r.n)}
	d.encode(&r.cols[col], 0)
	r.dicts[col] = d
	return d
}

// extend returns the dictionary of c, which holds d's column followed by
// new rows from row `from` on. The successor shares d's code array and
// value map and extends both in place, so only the one successor that
// claimed the parent relation may call it.
func (d *ColDict) extend(c *Column, from int) *ColDict {
	next := *d
	next.encode(c, from)
	return &next
}

// encode appends the codes of c's rows from row `from` on, giving each value
// the dictionary has not seen the next free code. It serves both the first
// build (from 0, empty maps) and extension over appended rows.
func (d *ColDict) encode(c *Column, from int) {
	codes := d.Codes
	switch c.Kind {
	case KindString:
		if d.strIDs == nil {
			d.strIDs = make(map[string]int32, 64)
		}
		ids := d.strIDs
		for _, s := range c.Str[from:] {
			id, ok := ids[s]
			if !ok {
				id = int32(len(ids))
				ids[s] = id
			}
			codes = append(codes, id)
		}
		d.Card = len(ids)
	case KindInt:
		if d.intIDs == nil {
			d.intIDs = make(map[int64]int32, 64)
		}
		ids := d.intIDs
		for _, v := range c.Int[from:] {
			id, ok := ids[v]
			if !ok {
				id = int32(len(ids))
				ids[v] = id
			}
			codes = append(codes, id)
		}
		d.Card = len(ids)
	case KindFloat:
		if d.floatIDs == nil {
			d.floatIDs = make(map[uint64]int32, 64)
		}
		ids := d.floatIDs
		for _, v := range c.Float[from:] {
			bits := math.Float64bits(v)
			if v != v {
				bits = canonicalNaN
			}
			id, ok := ids[bits]
			if !ok {
				id = int32(len(ids))
				ids[bits] = id
			}
			codes = append(codes, id)
		}
		d.Card = len(ids)
	}
	d.Codes = codes
}

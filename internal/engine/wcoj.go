package engine

import (
	"context"
	"sort"

	"qagview/internal/relation"
)

// This file implements the worst-case-optimal multi-way join (the generic /
// leapfrog join of Ngo et al.): attribute-at-a-time enumeration over
// per-relation tries of sorted dictionary codes. It is selected when the
// join graph is cyclic — where any left-deep binary plan can materialize an
// intermediate asymptotically larger than the output (the triangle query's
// |E|^2 vs. AGM-bound |E|^{3/2}) — and on demand via ExecGenericJoin.
//
// Join variables are the equivalence classes of equated columns
// (joinPlan.varOccs). Each variable gets a joint code space: the union of
// its occurrence columns' dictionaries, recoded first-seen into one dense
// domain under the class's key kind. Each relation's trie is the rows its
// pushed-down WHERE selected, sorted lexicographically by the joint codes
// of its variables (in global variable order) with row id as the tiebreak
// — exactly the per-column sorted code indexes of relation.CodeGroups,
// composed per relation. The enumeration intersects, level by level, the
// current code ranges of every relation containing the variable (leapfrog:
// repeatedly seek the lagging iterator to the current maximum), and at a
// full binding emits the cross product of the per-relation row ranges. A
// final lexicographic sort by FROM-position row ids lands the tuples in the
// canonical nested-loop order, making the path bit-identical to the
// reference and the hash plan.

// lfTable is one relation's trie: surviving rows sorted by their variables'
// joint codes, plus the per-level code of each sorted row.
type lfTable struct {
	vars  []int     // global variable indexes present in this relation, ascending
	rows  []int32   // sorted surviving row ids
	codes [][]int32 // codes[l][k] = joint code of rows[k] at level l
}

// lfPart locates a variable inside a relation's trie.
type lfPart struct {
	ti  int // table index
	lvl int // level of the variable within that table's trie
}

type leapfrog struct {
	jp     *joinPlan
	tables []*lfTable
	atVar  [][]lfPart // per variable: the tries containing it
}

// jointCodes recodes every occurrence column of variable v into one joint
// first-seen code space, returning local->joint translation per occurrence.
// Values present in only some relations keep distinct joint codes and
// simply never intersect.
func (jp *joinPlan) jointCodes(v int) map[[2]int][]int32 {
	vi := &valIndex{kind: jp.varKind[v]}
	switch vi.kind {
	case kkString:
		vi.s = make(map[string]int32, 64)
	case kkInt:
		vi.i = make(map[int64]int32, 64)
	default:
		vi.f = make(map[uint64]int32, 64)
	}
	assign := func(c *relation.Column, row int32) int32 {
		switch vi.kind {
		case kkString:
			s := c.Str[row]
			id, ok := vi.s[s]
			if !ok {
				id = int32(len(vi.s))
				vi.s[s] = id
			}
			return id
		case kkInt:
			n := c.Int[row]
			id, ok := vi.i[n]
			if !ok {
				id = int32(len(vi.i))
				vi.i[n] = id
			}
			return id
		default:
			b := numKeyBits(c, row)
			id, ok := vi.f[b]
			if !ok {
				id = int32(len(vi.f))
				vi.f[b] = id
			}
			return id
		}
	}
	out := make(map[[2]int][]int32, len(jp.varOccs[v]))
	for _, occ := range jp.varOccs[v] {
		t, ci := occ[0], occ[1]
		c := jp.rels[t].Column(ci)
		d := jp.rels[t].DictCodes(ci)
		g := jp.rels[t].CodeGroups(ci)
		tr := make([]int32, d.Card)
		for code := 0; code < d.Card; code++ {
			tr[code] = assign(c, g.Rep(int32(code)))
		}
		out[occ] = tr
	}
	return out
}

// newLeapfrog builds the tries over the selected rows (sels as from
// execPlan.selections: nil means every row).
func (jp *joinPlan) newLeapfrog(sels [][]int32) *leapfrog {
	nt := len(jp.rels)
	nv := len(jp.varOccs)
	lf := &leapfrog{jp: jp, tables: make([]*lfTable, nt), atVar: make([][]lfPart, nv)}

	// rowJoint[t][v] = per-row joint code of variable v in table t (nil if
	// absent); multi-occurrence rows that disagree across occurrences of
	// one variable are dropped (they can never satisfy the equalities).
	rowJoint := make([][][]int32, nt)
	drop := make([][]bool, nt)
	for t := 0; t < nt; t++ {
		rowJoint[t] = make([][]int32, nv)
	}
	for v := 0; v < nv; v++ {
		trs := jp.jointCodes(v)
		for _, occ := range jp.varOccs[v] {
			t, ci := occ[0], occ[1]
			tr := trs[occ]
			codes := jp.rels[t].DictCodes(ci).Codes
			if rowJoint[t][v] == nil {
				jc := make([]int32, len(codes))
				for r, c := range codes {
					jc[r] = tr[c]
				}
				rowJoint[t][v] = jc
				continue
			}
			if drop[t] == nil {
				drop[t] = make([]bool, len(codes))
			}
			jc := rowJoint[t][v]
			for r, c := range codes {
				if tr[c] != jc[r] {
					drop[t][r] = true
				}
			}
		}
	}

	for t := 0; t < nt; t++ {
		lt := &lfTable{}
		for v := 0; v < nv; v++ {
			if rowJoint[t][v] != nil {
				lt.vars = append(lt.vars, v)
			}
		}
		sel := sels[t]
		n := len(sel)
		if sel == nil {
			n = jp.rels[t].NumRows()
		}
		rows := make([]int32, 0, n)
		for k := 0; k < n; k++ {
			r := int32(k)
			if sel != nil {
				r = sel[k]
			}
			if drop[t] == nil || !drop[t][r] {
				rows = append(rows, r)
			}
		}
		byVar := make([][]int32, len(lt.vars))
		for l, v := range lt.vars {
			byVar[l] = rowJoint[t][v]
		}
		sort.Slice(rows, func(a, b int) bool {
			ra, rb := rows[a], rows[b]
			for _, jc := range byVar {
				if jc[ra] != jc[rb] {
					return jc[ra] < jc[rb]
				}
			}
			return ra < rb
		})
		lt.rows = rows
		lt.codes = make([][]int32, len(lt.vars))
		for l := range lt.vars {
			cs := make([]int32, len(rows))
			for k, r := range rows {
				cs[k] = byVar[l][r]
			}
			lt.codes[l] = cs
		}
		lf.tables[t] = lt
		for l, v := range lt.vars {
			lf.atVar[v] = append(lf.atVar[v], lfPart{ti: t, lvl: l})
		}
	}
	return lf
}

// lfLevel is one join variable's iterator state: per participating trie,
// the current position, the level's fixed range end, the bound code's
// subrange end, and the enclosing ranges saved while deeper levels run.
type lfLevel struct {
	pos, end, sub, saveLo, saveHi []int
}

// leapfrogTuples runs the generic join over the selected rows and returns
// the matching row-id tuples in canonical lexicographic order.
func (jp *joinPlan) leapfrogTuples(ctx context.Context, sels [][]int32) ([][]int32, error) {
	lf := jp.newLeapfrog(sels)
	nt := len(jp.rels)
	nv := len(jp.varOccs)
	tuples := make([][]int32, nt)

	// Current sorted-row range per table, narrowed as variables bind.
	lo := make([]int, nt)
	hi := make([]int, nt)
	for t := range lf.tables {
		hi[t] = len(lf.tables[t].rows)
	}
	for t := range lf.tables {
		if hi[t] == 0 {
			return tuples, nil
		}
	}

	cur := make([]int32, nt)
	var emit func(t int)
	emit = func(t int) {
		if t == nt {
			for i := range cur {
				tuples[i] = append(tuples[i], cur[i])
			}
			return
		}
		rows := lf.tables[t].rows
		for k := lo[t]; k < hi[t]; k++ {
			cur[t] = rows[k]
			emit(t + 1)
		}
	}

	// seek returns the first position in [from, to) whose code at level lvl
	// is >= c; codes are ascending within the bound prefix.
	seek := func(codes []int32, from, to int, c int32) int {
		return from + sort.Search(to-from, func(i int) bool { return codes[from+i] >= c })
	}

	// A level is never re-entered while it is active, so one scratch set
	// per variable, allocated here, serves every recursion.
	levels := make([]lfLevel, nv)
	for v := range levels {
		k := len(lf.atVar[v])
		levels[v] = lfLevel{pos: make([]int, k), end: make([]int, k), sub: make([]int, k),
			saveLo: make([]int, k), saveHi: make([]int, k)}
	}

	var rec func(v int) error
	rec = func(v int) error {
		if v == nv {
			emit(0)
			return nil
		}
		parts := lf.atVar[v]
		lv := &levels[v]
		pos, end, sub, saveLo, saveHi := lv.pos, lv.end, lv.sub, lv.saveLo, lv.saveHi
		// Iterator positions start at each participating trie's range
		// start; the range ends stay fixed for this level.
		for i, p := range parts {
			pos[i] = lo[p.ti]
			end[i] = hi[p.ti]
		}
		for {
			if v == 0 && ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			// Find the maximum current code; seek laggards up to it.
			var maxCode int32
			for i, p := range parts {
				c := lf.tables[p.ti].codes[p.lvl][pos[i]]
				if i == 0 || c > maxCode {
					maxCode = c
				}
			}
			equal := true
			for i, p := range parts {
				codes := lf.tables[p.ti].codes[p.lvl]
				if codes[pos[i]] < maxCode {
					pos[i] = seek(codes, pos[i], end[i], maxCode)
					if pos[i] >= end[i] {
						return nil
					}
					if codes[pos[i]] != maxCode {
						equal = false
					}
				}
			}
			if !equal {
				continue
			}
			// All iterators agree on maxCode: bind it, narrow every
			// participating trie to the code's subrange, recurse, then
			// advance past the subrange.
			for i, p := range parts {
				sub[i] = seek(lf.tables[p.ti].codes[p.lvl], pos[i], end[i], maxCode+1)
			}
			for i, p := range parts {
				saveLo[i], saveHi[i] = lo[p.ti], hi[p.ti]
				lo[p.ti], hi[p.ti] = pos[i], sub[i]
			}
			err := rec(v + 1)
			for i, p := range parts {
				lo[p.ti], hi[p.ti] = saveLo[i], saveHi[i]
			}
			if err != nil {
				return err
			}
			done := false
			for i := range parts {
				pos[i] = sub[i]
				if pos[i] >= end[i] {
					done = true
				}
			}
			if done {
				return nil
			}
		}
	}
	if err := rec(0); err != nil {
		return nil, err
	}

	// Final canonical ordering: lexicographic by FROM-position row ids.
	n := len(tuples[0])
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		for t := 0; t < nt; t++ {
			if tuples[t][ia] != tuples[t][ib] {
				return tuples[t][ia] < tuples[t][ib]
			}
		}
		return false
	})
	out := make([][]int32, nt)
	for t := 0; t < nt; t++ {
		col := make([]int32, n)
		for i, j := range idx {
			col[i] = tuples[t][j]
		}
		out[t] = col
	}
	return out, nil
}

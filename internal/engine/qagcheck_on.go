//go:build qagcheck

package engine

import (
	"fmt"
	"math"
	"reflect"

	"qagview/internal/relation"
)

// Built with -tags qagcheck, every join's row-id columns are verified
// before aggregation against the invariants the pipeline and bit-identity
// rest on: one length across columns, every id in range for its FROM
// table, and tuples strictly ascending in FROM-position lexicographic
// order (the canonical nested-loop order, with no tuple twice). Violations
// panic: a broken tuple stream is a bug in a join algorithm, not a
// recoverable condition.
func assertJoinTuples(tuples [][]int32, rels []*relation.Relation) {
	if len(tuples) != len(rels) {
		panic(fmt.Sprintf("qagcheck: join: %d row-id columns for %d FROM tables", len(tuples), len(rels)))
	}
	n := len(tuples[0])
	for t, col := range tuples {
		if len(col) != n {
			panic(fmt.Sprintf("qagcheck: join: row-id column %d has %d tuples, column 0 has %d", t, len(col), n))
		}
		nr := int32(rels[t].NumRows())
		for i, r := range col {
			if r < 0 || r >= nr {
				panic(fmt.Sprintf("qagcheck: join: tuple %d row id %d out of range [0, %d) for FROM table %d", i, r, nr, t))
			}
		}
	}
	for i := 1; i < n; i++ {
		ascending := false
		for _, col := range tuples {
			if col[i-1] != col[i] {
				ascending = col[i-1] < col[i]
				break
			}
		}
		if !ascending {
			panic(fmt.Sprintf("qagcheck: join: tuples %d and %d not strictly ascending in FROM-position order", i-1, i))
		}
	}
}

// foldCheck keeps the previous output of a Retained, the fold oracle's
// baseline.
type foldCheck struct{ prev *Result }

func (c *foldCheck) seed(res *Result) { c.prev = res }

// fold asserts that a fold's result equals a full executeVec over the new
// generation, bit for bit, and that changed is exactly "the ranked output
// differs from the previous one".
func (c *foldCheck) fold(vp *vecPlan, res *Result, f *Folded) {
	full, err := executeVec(newVecPlan(vp.execPlan), execConfig{par: 1})
	if err != nil {
		panic(fmt.Sprintf("qagcheck: fold: full execution failed: %v", err))
	}
	if !sameResult(full, res) {
		panic(fmt.Sprintf("qagcheck: fold: result differs from a full execution's (%d rows, full %d)", len(res.Rows), len(full.Rows)))
	}
	if f.Changed == sameResult(c.prev, res) {
		panic(fmt.Sprintf("qagcheck: fold: changed = %v, but the output %s", f.Changed, map[bool]string{true: "is the previous one", false: "differs"}[!f.Changed]))
	}
	c.prev = res
}

// sameResult reports whether two results hold the same rows and value bits.
func sameResult(a, b *Result) bool {
	if !reflect.DeepEqual(a.Rows, b.Rows) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i, v := range a.Vals {
		if math.Float64bits(v) != math.Float64bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

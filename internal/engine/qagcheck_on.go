//go:build qagcheck

package engine

import (
	"fmt"

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

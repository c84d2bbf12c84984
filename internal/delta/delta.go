// Package delta is the incremental-maintenance subsystem for live tables:
// it keeps a materialized exploration context — cluster index, warm sweeper,
// precomputed (k, D) stores — consistent with an answer set that changes
// under it, without rebuilding from scratch.
//
// The paper's interactive loop assumes a frozen answer set; a production
// service does not get that luxury. This package tracks how every derived
// layer depends on the base tuples and propagates batched appends and
// deletes through them: Maintainer applies a re-ranked query result through
// lattice.Index.Rebase (copy-on-write, bit-identical to a rebuild, and a
// no-op when nothing changed), warm-starts the next summarization sweeper
// from the previous one
// (summarize.Sweeper.Warm), and stamps every precomputed store with a
// monotonically increasing data generation so serving layers can tell fresh
// sweeps from superseded ones.
package delta

import "sort"

// sortResult orders (rows, vals) by descending value, stable — the ranking
// lattice.NewSpace derives and Rebase requires — returning fresh slices when
// a reorder was needed and the inputs unchanged otherwise.
func sortResult(rows [][]string, vals []float64) ([][]string, []float64) {
	sorted := true
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return rows, vals
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	outRows := make([][]string, len(rows))
	outVals := make([]float64, len(vals))
	for out, in := range idx {
		outRows[out] = rows[in]
		outVals[out] = vals[in]
	}
	return outRows, outVals
}

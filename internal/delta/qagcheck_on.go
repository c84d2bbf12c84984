//go:build qagcheck

package delta

import (
	"fmt"
	"reflect"

	"qagview/internal/lattice"
)

// Built with -tags qagcheck, every origin a caller hands RefreshWithOrigin
// is checked against Diff over the current space: the same mapping, and a
// change to apply. A mismatch is a bug in the caller's delta tracking (the
// engine's retained aggregation), which Rebase's per-row checks could miss
// (a kept row reported as new passes them).
func assertOrigin(s *lattice.Space, rows [][]string, vals []float64, origin []int32) {
	want, changed, err := Diff(s, rows, vals)
	if err != nil {
		panic(fmt.Sprintf("qagcheck: delta: Diff failed: %v", err))
	}
	if !changed || !reflect.DeepEqual(want, origin) {
		panic(fmt.Sprintf("qagcheck: delta: origin %v, Diff gives %v (changed %v)", origin, want, changed))
	}
}

//go:build qagcheck

package delta

import (
	"context"
	"strings"
	"testing"
)

// Only meaningful under -tags qagcheck: RefreshWithOrigin must refuse an
// origin that differs from Diff's, even one Rebase would accept (a kept
// row reported as new).
func TestQagcheckCatchesWrongOrigin(t *testing.T) {
	rows := [][]string{{"a", "x"}, {"b", "x"}, {"c", "y"}}
	vals := []float64{3, 2, 1}
	mt := New(buildIndex(t, attrNames(2), rows, vals, 2))
	next := append(append([][]string(nil), rows...), []string{"d", "y"})
	nextVals := append(append([]float64(nil), vals...), 0.5)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RefreshWithOrigin accepted an origin that differs from Diff's")
		}
		if !strings.Contains(r.(string), "Diff gives") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	mt.RefreshWithOrigin(context.Background(), next, nextVals, []int32{0, 1, -1, -1})
}

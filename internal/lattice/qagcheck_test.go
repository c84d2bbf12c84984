//go:build qagcheck

package lattice

import (
	"strings"
	"testing"

	"qagview/internal/pattern"
)

// Only meaningful under -tags qagcheck: the assertions must actually fire on
// a corrupt fill, otherwise the CI job checks nothing.
func qagcheckSpace() *Space {
	return &Space{
		Tuples: []pattern.Pattern{{0, 0}, {0, 1}, {1, 1}},
		Vals:   []float64{3, 2, 1},
	}
}

func expectFillPanic(t *testing.T, c *Cluster, want string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("assertFill accepted %+v", c)
		}
		if !strings.Contains(r.(string), want) {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	assertFill(&Index{Space: qagcheckSpace()}, c)
}

func TestQagcheckCatchesUnsortedCoverage(t *testing.T) {
	expectFillPanic(t, &Cluster{Pat: pattern.Pattern{0, pattern.Star}, Cov: []int32{1, 0}, Sum: 5}, "does not list covered tuple")
}

func TestQagcheckCatchesOutOfRangeCoverage(t *testing.T) {
	expectFillPanic(t, &Cluster{Pat: pattern.Pattern{0, pattern.Star}, Cov: []int32{0, 1, 5}, Sum: 5}, "lists 3 tuples")
}

func TestQagcheckCatchesWrongSum(t *testing.T) {
	expectFillPanic(t, &Cluster{Pat: pattern.Pattern{0, pattern.Star}, Cov: []int32{0, 1}, Sum: 4}, "sum")
}

func TestQagcheckCatchesWrongBitmap(t *testing.T) {
	expectFillPanic(t, &Cluster{Pat: pattern.Pattern{0, pattern.Star}, Cov: []int32{0, 1}, Bits: []uint64{0b01}, Sum: 5}, "bitmap [1] at word 0")
	expectFillPanic(t, &Cluster{Pat: pattern.Pattern{0, pattern.Star}, Cov: []int32{0, 1}, Bits: []uint64{0b11, 0}, Sum: 5}, "bitmap [3 0] at word 0")
}

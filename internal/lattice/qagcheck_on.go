//go:build qagcheck

package lattice

import (
	"fmt"
	"math"
	"slices"
)

// Built with -tags qagcheck, every index handed out by a build or an
// incremental update is verified against the structural invariants the rest
// of the system assumes (and qagvet checks callers against statically): the
// packed codec wide enough for every dictionary's active domain. Every fill
// is checked against a scan of all N tuples: the coverage must list exactly
// the tuples the pattern covers, ascending, the sum must be their values
// added in that order, to the bit, and the bitmap must set exactly their
// bits over the words from the first to the last. Violations
// panic: a broken index is a determinism bug in the lattice code, not a
// recoverable condition.
func assertIndexInvariants(ix *Index, origin string) {
	if ix == nil {
		return
	}
	for j, d := range ix.Space.Dicts {
		if !ix.codec.CardFits(j, d.Len()) {
			panic(fmt.Sprintf("qagcheck: %s: codec field %d cannot hold dictionary cardinality %d; packing would alias the Star sentinel", origin, j, d.Len()))
		}
	}
}

func assertFill(ix *Index, c *Cluster) {
	s := ix.Space
	k := 0
	sum := 0.0
	for ti, t := range s.Tuples {
		if !c.Pat.CoversTuple(t) {
			continue
		}
		if k >= len(c.Cov) || c.Cov[k] != int32(ti) {
			panic(fmt.Sprintf("qagcheck: fill: cluster %d %v coverage %v does not list covered tuple %d at offset %d", c.ID, c.Pat, c.Cov, ti, k))
		}
		sum += s.Vals[ti]
		k++
	}
	if k != len(c.Cov) {
		panic(fmt.Sprintf("qagcheck: fill: cluster %d %v coverage lists %d tuples, the pattern covers %d", c.ID, c.Pat, len(c.Cov), k))
	}
	if math.Float64bits(sum) != math.Float64bits(c.Sum) {
		panic(fmt.Sprintf("qagcheck: fill: cluster %d %v sum %v, ascending scan gives %v", c.ID, c.Pat, c.Sum, sum))
	}
	// The bitmap sets exactly the listed tuples, over the words from the
	// first listed tuple's to the last one's.
	var want []uint64
	off := int32(0)
	if len(c.Cov) > 0 {
		off = c.Cov[0] >> 6
		want = make([]uint64, c.Cov[len(c.Cov)-1]>>6-off+1)
		for _, t := range c.Cov {
			want[t>>6-off] |= 1 << (t & 63)
		}
	}
	if c.BitsOff != off || !slices.Equal(c.Bits, want) {
		panic(fmt.Sprintf("qagcheck: fill: cluster %d %v bitmap %x at word %d, its coverage sets %x at word %d", c.ID, c.Pat, c.Bits, c.BitsOff, want, off))
	}
}

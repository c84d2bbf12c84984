// Package pattern implements the cluster-pattern algebra of Section 3 of the
// paper: patterns over m categorical attributes where each position is either
// a concrete (dictionary-encoded) value or the don't-care value Star, with
// coverage, the cluster distance metric of Definition 3.1, least common
// ancestors, and semilattice levels.
package pattern

import "strings"

// Star is the don't-care value '*' in a pattern position.
const Star int32 = -1

// MaxAttrs is the maximum number of grouping attributes the pattern algebra
// supports. It bounds the 2^m ancestor enumerations (Ancestors,
// Codec.AppendAncestors, cluster generation in lattice.BuildIndex), which
// keep one subset-mask bit per attribute; every layer that rejects or panics
// on wide schemas uses this one constant, so the bound reported by
// lattice.BuildIndex and enforced by Ancestors cannot drift apart.
const MaxAttrs = 16

// Pattern is a cluster description: one dictionary-encoded value or Star per
// attribute. A concrete tuple is a pattern with no Star (a singleton
// cluster).
type Pattern []int32

// FromTuple copies a concrete tuple into a fresh pattern.
func FromTuple(t []int32) Pattern {
	p := make(Pattern, len(t))
	copy(p, t)
	return p
}

// Clone returns a copy of p.
func (p Pattern) Clone() Pattern {
	q := make(Pattern, len(p))
	copy(q, p)
	return q
}

// Level is the semilattice level of p: the number of Star positions.
// Singleton clusters are at level 0; the all-star pattern is at level m.
func (p Pattern) Level() int {
	n := 0
	for _, v := range p {
		if v == Star {
			n++
		}
	}
	return n
}

// Covers reports whether p covers q: at every position p is Star or agrees
// with q. Every pattern covers itself.
func (p Pattern) Covers(q Pattern) bool {
	for i, v := range p {
		if v != Star && v != q[i] {
			return false
		}
	}
	return true
}

// Comparable reports whether p and q are ordered in the semilattice (one
// covers the other). Feasible solutions must be antichains: no two chosen
// clusters may be comparable (Definition 4.1, condition 4).
func Comparable(p, q Pattern) bool {
	return p.Covers(q) || q.Covers(p)
}

// Equal reports whether p and q are identical patterns.
func Equal(p, q Pattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Distance is the cluster distance of Definition 3.1: the number of
// attributes where at least one side is Star or the two sides disagree.
// Equivalently, m minus the number of positions where both sides have the
// same concrete value. It is the maximum possible element distance between
// members of the two clusters, and it is a metric (see the package tests).
func Distance(p, q Pattern) int {
	d := 0
	for i, v := range p {
		if v == Star || q[i] == Star || v != q[i] {
			d++
		}
	}
	return d
}

// TupleDistance is the element distance of Definition 3.1: the number of
// attributes where two concrete tuples differ (Hamming distance).
func TupleDistance(t, u []int32) int {
	d := 0
	for i, v := range t {
		if v != u[i] {
			d++
		}
	}
	return d
}

// LCA returns the least common ancestor of p and q in the semilattice: the
// pattern keeping positions where p and q agree on a concrete value and
// starring the rest. It is the most specific pattern covering both.
func LCA(p, q Pattern) Pattern {
	r := make(Pattern, len(p))
	for i, v := range p {
		if v != Star && v == q[i] {
			r[i] = v
		} else {
			r[i] = Star
		}
	}
	return r
}

// LCAInto is LCA writing the result into dst (which must have len(p));
// it avoids an allocation in hot merge loops.
func LCAInto(dst, p, q Pattern) {
	for i, v := range p {
		if v != Star && v == q[i] {
			dst[i] = v
		} else {
			dst[i] = Star
		}
	}
}

// CoversTuple reports whether the pattern covers a concrete tuple. It is
// Covers specialized to the common case for clarity at call sites.
func (p Pattern) CoversTuple(t []int32) bool {
	for i, v := range p {
		if v != Star && v != t[i] {
			return false
		}
	}
	return true
}

// String renders the pattern with raw ids, Star as "*". Use a lattice.Space
// to render with attribute values.
func (p Pattern) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			sb.WriteString(", ")
		}
		if v == Star {
			sb.WriteByte('*')
		} else {
			sb.WriteString(itoa(int(v)))
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Ancestors enumerates all 2^level-complement generalizations of a concrete
// tuple t: every pattern obtained by starring a subset of positions. The
// callback receives a scratch pattern that is only valid for the duration of
// the call; callers must Clone it to retain it. Enumeration order is by
// subset bitmask, so the concrete tuple itself comes first and the all-star
// pattern last. Ancestors panics if len(t) > MaxAttrs (the enumeration would
// be astronomically large anyway).
func Ancestors(t []int32, fn func(Pattern)) {
	m := len(t)
	if m > MaxAttrs {
		panic("pattern: Ancestors over more than MaxAttrs attributes")
	}
	scratch := make(Pattern, m)
	for mask := 0; mask < 1<<m; mask++ {
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				scratch[i] = Star
			} else {
				scratch[i] = t[i]
			}
		}
		fn(scratch)
	}
}

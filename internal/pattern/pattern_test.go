package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genPattern draws a random pattern with m attributes over a small domain,
// with Star probability ~1/3.
func genPattern(rng *rand.Rand, m int) Pattern {
	p := make(Pattern, m)
	for i := range p {
		switch rng.Intn(3) {
		case 0:
			p[i] = Star
		default:
			p[i] = int32(rng.Intn(4))
		}
	}
	return p
}

func genTuple(rng *rand.Rand, m int) []int32 {
	t := make([]int32, m)
	for i := range t {
		t[i] = int32(rng.Intn(4))
	}
	return t
}

func TestDistanceExamplesFromPaper(t *testing.T) {
	// Figure 3a: C1 = (*, *, c1, d1), C2 = (a2, b1, *, d1): distance 3.
	c1 := Pattern{Star, Star, 0, 0}
	c2 := Pattern{1, 1, Star, 0}
	if got := Distance(c1, c2); got != 3 {
		t.Errorf("Distance(C1, C2) = %d, want 3", got)
	}
	if got := Distance(c1, c1); got != 2 {
		// Two stars always count: the self-distance of a starred pattern is
		// its level, per Definition 3.1.
		t.Errorf("Distance(C1, C1) = %d, want 2", got)
	}
}

func TestDistanceIsMetricOnTuples(t *testing.T) {
	// On concrete tuples (singleton clusters) the distance is the Hamming
	// distance, which is a true metric.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b, c := genTuple(rng, 6), genTuple(rng, 6), genTuple(rng, 6)
		if TupleDistance(a, a) != 0 {
			t.Fatal("identity violated")
		}
		if TupleDistance(a, b) != TupleDistance(b, a) {
			t.Fatal("symmetry violated")
		}
		if TupleDistance(a, c) > TupleDistance(a, b)+TupleDistance(b, c) {
			t.Fatalf("triangle violated: %v %v %v", a, b, c)
		}
	}
}

func TestDistanceBoundsQuick(t *testing.T) {
	// Property: symmetric and bounded by [0, m] for arbitrary patterns.
	f := func(av, bv []uint8) bool {
		m := len(av)
		if len(bv) < m {
			m = len(bv)
		}
		if m == 0 {
			return true
		}
		a, b := make(Pattern, m), make(Pattern, m)
		for i := 0; i < m; i++ {
			a[i] = int32(av[i]%5) - 1 // -1 is Star
			b[i] = int32(bv[i]%5) - 1
		}
		d := Distance(a, b)
		return d == Distance(b, a) && d >= 0 && d <= m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClusterDistanceTriangle(t *testing.T) {
	// The cluster distance satisfies the triangle inequality and symmetry
	// (the paper states it is a metric in the extended sense; identity holds
	// up to starred positions).
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a, b, c := genPattern(rng, 5), genPattern(rng, 5), genPattern(rng, 5)
		if Distance(a, b) != Distance(b, a) {
			t.Fatalf("symmetry violated: %v %v", a, b)
		}
		if Distance(a, c) > Distance(a, b)+Distance(b, c) {
			t.Fatalf("triangle violated: %v %v %v", a, b, c)
		}
	}
}

func TestDistanceUpperBoundsMemberDistance(t *testing.T) {
	// "The distance between two clusters is the maximum possible distance
	// between any two elements that these two clusters may contain."
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a, b := genPattern(rng, 5), genPattern(rng, 5)
		// Draw random members of each pattern by filling stars.
		x, y := make([]int32, 5), make([]int32, 5)
		for j := 0; j < 5; j++ {
			if a[j] == Star {
				x[j] = int32(rng.Intn(4))
			} else {
				x[j] = a[j]
			}
			if b[j] == Star {
				y[j] = int32(rng.Intn(4))
			} else {
				y[j] = b[j]
			}
		}
		if TupleDistance(x, y) > Distance(a, b) {
			t.Fatalf("member distance %d exceeds cluster distance %d (%v %v)", TupleDistance(x, y), Distance(a, b), a, b)
		}
	}
}

func TestMonotonicityProposition42(t *testing.T) {
	// Proposition 4.2: replacing a cluster by an ancestor never decreases the
	// pairwise distance to any other cluster.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		c1 := genPattern(rng, 6)
		other := genPattern(rng, 6)
		// Build an ancestor of c1 by starring extra positions.
		c2 := c1.Clone()
		for j := range c2 {
			if rng.Intn(2) == 0 {
				c2[j] = Star
			}
		}
		if !c2.Covers(c1) {
			t.Fatal("constructed non-ancestor")
		}
		if Distance(c2, other) < Distance(c1, other) {
			t.Fatalf("monotonicity violated: d(%v,%v)=%d < d(%v,%v)=%d",
				c2, other, Distance(c2, other), c1, other, Distance(c1, other))
		}
	}
}

func TestCoversAndComparable(t *testing.T) {
	a := Pattern{1, Star, 2}
	b := Pattern{1, 3, 2}
	c := Pattern{Star, 3, 2}
	if !a.Covers(b) || a.Covers(c) {
		t.Errorf("Covers wrong: a>b=%v a>c=%v", a.Covers(b), a.Covers(c))
	}
	if !Comparable(a, b) || Comparable(a, c) {
		t.Error("Comparable wrong")
	}
	if !a.Covers(a) {
		t.Error("pattern must cover itself")
	}
	if !b.CoversTuple([]int32{1, 3, 2}) || b.CoversTuple([]int32{1, 3, 0}) {
		t.Error("CoversTuple wrong")
	}
}

func TestLCA(t *testing.T) {
	// Example from Section 5.1: LCA of (a1,*,c1,*) and (a1,b2,c2,*) is
	// (a1,*,*,*).
	a := Pattern{0, Star, 0, Star}
	b := Pattern{0, 1, 1, Star}
	want := Pattern{0, Star, Star, Star}
	if got := LCA(a, b); !Equal(got, want) {
		t.Errorf("LCA = %v, want %v", got, want)
	}
	dst := make(Pattern, 4)
	LCAInto(dst, a, b)
	if !Equal(dst, want) {
		t.Errorf("LCAInto = %v, want %v", dst, want)
	}
}

func TestLCAProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		a, b := genPattern(rng, 6), genPattern(rng, 6)
		l := LCA(a, b)
		if !l.Covers(a) || !l.Covers(b) {
			t.Fatalf("LCA %v does not cover %v and %v", l, a, b)
		}
		// Least: any pattern covering both must cover the LCA.
		u := genPattern(rng, 6)
		if u.Covers(a) && u.Covers(b) && !u.Covers(l) {
			t.Fatalf("upper bound %v of %v,%v does not cover LCA %v", u, a, b, l)
		}
		if !Equal(LCA(a, b), LCA(b, a)) {
			t.Fatal("LCA not commutative")
		}
		if !Equal(LCA(a, a), starNormalize(a)) {
			t.Fatalf("LCA(a,a) = %v, want %v", LCA(a, a), a)
		}
	}
}

// starNormalize returns a copy of p (LCA(a,a) should equal a exactly).
func starNormalize(p Pattern) Pattern { return p.Clone() }

func TestLevel(t *testing.T) {
	if got := (Pattern{1, 2, 3}).Level(); got != 0 {
		t.Errorf("level of concrete = %d", got)
	}
	if got := (Pattern{Star, 2, Star}).Level(); got != 2 {
		t.Errorf("level = %d, want 2", got)
	}
}

func TestAncestorsEnumeration(t *testing.T) {
	tup := []int32{3, 7}
	var got []Pattern
	Ancestors(tup, func(p Pattern) { got = append(got, p.Clone()) })
	if len(got) != 4 {
		t.Fatalf("ancestors count = %d, want 4", len(got))
	}
	if !Equal(got[0], Pattern{3, 7}) {
		t.Errorf("first ancestor = %v, want concrete tuple", got[0])
	}
	if !Equal(got[3], Pattern{Star, Star}) {
		t.Errorf("last ancestor = %v, want all-star", got[3])
	}
	for _, p := range got {
		if !p.CoversTuple(tup) {
			t.Errorf("ancestor %v does not cover tuple", p)
		}
	}
}

// TestAncestorsAttributeBound pins both sides of the shared MaxAttrs bound:
// enumeration works at exactly MaxAttrs attributes and panics one past it
// (the same constant lattice.BuildIndex rejects schemas against).
func TestAncestorsAttributeBound(t *testing.T) {
	n := 0
	Ancestors(make([]int32, MaxAttrs), func(Pattern) { n++ })
	if n != 1<<MaxAttrs {
		t.Errorf("m = MaxAttrs enumerated %d ancestors, want %d", n, 1<<MaxAttrs)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic for m > MaxAttrs")
		}
	}()
	Ancestors(make([]int32, MaxAttrs+1), func(Pattern) {})
}

func TestFromTupleAndClone(t *testing.T) {
	tup := []int32{1, 2}
	p := FromTuple(tup)
	tup[0] = 9
	if p[0] != 1 {
		t.Error("FromTuple did not copy")
	}
	q := p.Clone()
	q[1] = 5
	if p[1] != 2 {
		t.Error("Clone did not copy")
	}
}

func TestString(t *testing.T) {
	p := Pattern{1, Star, 23, -0x7fffffff + 1}
	_ = p
	if got := (Pattern{1, Star, 23}).String(); got != "(1, *, 23)" {
		t.Errorf("String = %q", got)
	}
	if got := (Pattern{0}).String(); got != "(0)" {
		t.Errorf("String = %q", got)
	}
}

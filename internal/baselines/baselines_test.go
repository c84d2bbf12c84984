package baselines

import (
	"fmt"
	"math/rand"
	"testing"

	"qagview/internal/lattice"
	"qagview/internal/pattern"
)

func space(t *testing.T, seed int64, n, m, dom int) *lattice.Space {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]string, 0, n)
	vals := make([]float64, 0, n)
	seen := map[string]bool{}
	for len(rows) < n {
		row := make([]string, m)
		key := ""
		boost := 0.0
		for j := range row {
			v := rng.Intn(dom)
			row[j] = fmt.Sprintf("v%d_%d", j, v)
			key += row[j]
			if v == 0 && j < 2 {
				boost++
			}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, row)
		vals = append(vals, rng.Float64()+boost)
	}
	attrs := make([]string, m)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	s, err := lattice.NewSpace(attrs, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSmartDrillDownGreedy(t *testing.T) {
	s := space(t, 1, 60, 4, 3)
	ix, err := lattice.BuildIndex(s, 15)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := SmartDrillDown(ix, 4, ScopeTopL)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 || len(rules) > 4 {
		t.Fatalf("rule count = %d", len(rules))
	}
	// Scores of successive rules cannot exceed the first pick (greedy takes
	// the max marginal first, and marginals only shrink as coverage grows...
	// not strictly monotone in general, but the first rule must dominate any
	// single-rule alternative).
	for id := int32(0); id < int32(ix.NumClusters()); id++ {
		c := ix.Cluster(id)
		w := ix.Space.M() - c.Pat.Level()
		if w == 0 {
			continue
		}
		mc := 0
		sum := 0.0
		for _, tt := range c.Cov {
			if int(tt) < 15 {
				mc++
				sum += s.Vals[tt]
			}
		}
		if mc == 0 {
			continue
		}
		if sc := float64(mc) * float64(w) * (sum / float64(mc)); sc > rules[0].Score+1e-9 {
			t.Fatalf("greedy first rule %v (score %v) beaten by %v (score %v)",
				rules[0].Cluster.Pat, rules[0].Score, c.Pat, sc)
		}
	}
	// Marginal counts sum to at most the scope size.
	total := 0
	for _, r := range rules {
		total += r.MarginalCount
		if r.Weight < 1 || r.Weight > s.M() {
			t.Errorf("weight out of range: %+v", r)
		}
	}
	if total > 15 {
		t.Errorf("marginal counts sum to %d > scope 15", total)
	}
	if _, err := SmartDrillDown(ix, 0, ScopeAll); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSmartDrillDownScopeAll(t *testing.T) {
	s := space(t, 2, 40, 4, 3)
	ix, err := lattice.BuildIndex(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := SmartDrillDown(ix, 50, ScopeAll)
	if err != nil {
		t.Fatal(err)
	}
	// With k larger than needed, greedy stops when all coverable elements
	// within scope are covered.
	covered := map[int32]bool{}
	for _, r := range rules {
		for _, tt := range r.Cluster.Cov {
			covered[tt] = true
		}
	}
	// Every element covered by at least one generated cluster must be
	// covered by the rule set (greedy exhausts marginals).
	reachable := map[int32]bool{}
	for id := int32(0); id < int32(ix.NumClusters()); id++ {
		c := ix.Cluster(id)
		if s.M()-c.Pat.Level() == 0 {
			continue
		}
		for _, tt := range c.Cov {
			reachable[tt] = true
		}
	}
	for tt := range reachable {
		if !covered[tt] {
			t.Fatalf("element %d reachable but uncovered", tt)
		}
	}
}

func TestDiversifiedTopKGreedy(t *testing.T) {
	s := space(t, 3, 50, 4, 3)
	chosen, err := DiversifiedTopKGreedy(s, 20, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) == 0 || len(chosen) > 4 {
		t.Fatalf("chose %d", len(chosen))
	}
	if chosen[0] != 0 {
		t.Errorf("greedy must take the top element first, got rank %d", chosen[0])
	}
	for i, a := range chosen {
		for _, b := range chosen[i+1:] {
			if pattern.TupleDistance(s.Tuples[a], s.Tuples[b]) < 2 {
				t.Errorf("chosen %d and %d too close", a, b)
			}
		}
	}
}

func TestDiversifiedTopKExactDominatesGreedy(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s := space(t, 10+seed, 30, 4, 3)
		L, k, D := 12, 3, 2
		g, err := DiversifiedTopKGreedy(s, L, k, D)
		if err != nil {
			t.Fatal(err)
		}
		e, err := DiversifiedTopKExact(s, L, k, D)
		if err != nil {
			t.Fatal(err)
		}
		sum := func(ranks []int) float64 {
			v := 0.0
			for _, r := range ranks {
				v += s.Vals[r]
			}
			return v
		}
		if sum(e) < sum(g)-1e-9 {
			t.Errorf("seed %d: exact %v < greedy %v", seed, sum(e), sum(g))
		}
		for i, a := range e {
			for _, b := range e[i+1:] {
				if pattern.TupleDistance(s.Tuples[a], s.Tuples[b]) < D {
					t.Errorf("exact solution violates distance")
				}
			}
		}
	}
}

func TestDisCIndependentAndDominating(t *testing.T) {
	s := space(t, 4, 40, 4, 3)
	L, r := 20, 1
	chosen, err := DisC(s, L, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range chosen {
		for _, b := range chosen[i+1:] {
			if pattern.TupleDistance(s.Tuples[a], s.Tuples[b]) <= r {
				t.Errorf("chosen %d, %d within radius", a, b)
			}
		}
	}
	for rank := 0; rank < L; rank++ {
		ok := false
		for _, c := range chosen {
			if pattern.TupleDistance(s.Tuples[rank], s.Tuples[c]) <= r {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("element %d not dominated", rank)
		}
	}
	if _, err := DisC(s, 0, 1); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := DisC(s, 5, 99); err == nil {
		t.Error("huge radius accepted")
	}
}

func TestMMRLambdaZeroIsTopK(t *testing.T) {
	s := space(t, 5, 30, 4, 3)
	chosen, err := MMR(s, 10, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range chosen {
		if r != i {
			t.Fatalf("lambda=0 should select top-k in order, got %v", chosen)
		}
	}
}

func TestMMRDiversityIncreasesWithLambda(t *testing.T) {
	s := space(t, 6, 40, 4, 3)
	minDist := func(ranks []int) int {
		best := s.M() + 1
		for i, a := range ranks {
			for _, b := range ranks[i+1:] {
				if d := pattern.TupleDistance(s.Tuples[a], s.Tuples[b]); d < best {
					best = d
				}
			}
		}
		return best
	}
	lo, err := MMR(s, 20, 4, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := MMR(s, 20, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if minDist(hi) < minDist(lo) {
		t.Errorf("lambda=1 (min dist %d) less diverse than lambda=0 (min dist %d)", minDist(hi), minDist(lo))
	}
	if _, err := MMR(s, 10, 3, -0.1); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := MMR(s, 10, 3, 1.1); err == nil {
		t.Error("lambda > 1 accepted")
	}
}

func TestNeighborhoodAvg(t *testing.T) {
	s := space(t, 7, 30, 4, 3)
	v := NeighborhoodAvg(s, 10, 0, 2)
	if v <= 0 {
		t.Errorf("avg = %v", v)
	}
	// Radius 1 includes only the element itself (all rows are distinct).
	if got := NeighborhoodAvg(s, 10, 3, 1); got != s.Vals[3] {
		t.Errorf("self-only neighborhood avg = %v, want %v", got, s.Vals[3])
	}
}

func TestParamValidation(t *testing.T) {
	s := space(t, 8, 20, 4, 3)
	if _, err := DiversifiedTopKGreedy(s, 0, 2, 1); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := DiversifiedTopKGreedy(s, 5, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := DiversifiedTopKGreedy(s, 5, 2, 9); err == nil {
		t.Error("D>m accepted")
	}
	if _, err := DiversifiedTopKExact(s, 99, 2, 1); err == nil {
		t.Error("L>N accepted")
	}
}

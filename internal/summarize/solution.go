// Package summarize implements the paper's primary contribution: the
// Max-Avg cluster summarization of top aggregate query answers
// (Definition 4.1) and the Bottom-Up, Fixed-Order, and Hybrid greedy
// algorithms of Section 5, with the Delta-Judgment optimization of
// Section 6.3, an exact branch-and-bound solver for small instances, and the
// algorithm variants evaluated in Section 7.1.
package summarize

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"qagview/internal/lattice"
	"qagview/internal/pattern"
)

// Params are the three user parameters of the framework.
type Params struct {
	// K is the maximum number of clusters to output (size constraint).
	K int
	// L is the coverage constraint: the top-L answers must be covered.
	L int
	// D is the diversity constraint: pairwise cluster distance must be >= D.
	D int
}

// Validate checks the parameters against an index.
func (p Params) Validate(ix *lattice.Index) error {
	if p.K < 1 {
		return fmt.Errorf("summarize: k = %d, want >= 1", p.K)
	}
	if p.L < 1 || p.L > ix.L {
		return fmt.Errorf("summarize: L = %d out of range [1, %d] for this index", p.L, ix.L)
	}
	if p.D < 0 || p.D > ix.Space.M() {
		return fmt.Errorf("summarize: D = %d out of range [0, %d]", p.D, ix.Space.M())
	}
	return nil
}

// Solution is a feasible set of clusters with its objective value.
type Solution struct {
	// Clusters is the output antichain, sorted by descending cluster average.
	Clusters []*lattice.Cluster
	// Covered lists the tuple indices covered by the union, ascending.
	Covered []int32
	// Sum is the total value of covered tuples.
	Sum float64
}

// AvgValue is the Max-Avg objective: the average value of all tuples covered
// by the solution, each counted once.
func (s *Solution) AvgValue() float64 {
	if len(s.Covered) == 0 {
		return 0
	}
	return s.Sum / float64(len(s.Covered))
}

// Size returns the number of clusters.
func (s *Solution) Size() int { return len(s.Clusters) }

// newSolution assembles a Solution from clusters, computing the covered
// union against the index's space: the sum adds each newly seen tuple's
// value cluster by cluster, in ascending tuple order within each, and the
// covered list is read off the union bitmap.
func newSolution(ix *lattice.Index, clusters []*lattice.Cluster) *Solution {
	sol := &Solution{Clusters: append([]*lattice.Cluster(nil), clusters...)}
	seen := newBitset(ix.Space.N())
	vals := ix.Space.Vals
	for _, c := range sol.Clusters {
		off := int(c.BitsOff)
		for i, b := range c.Bits {
			x := b &^ seen[off+i]
			seen[off+i] |= x
			for ; x != 0; x &= x - 1 {
				sol.Sum += vals[(off+i)<<6|bits.TrailingZeros64(x)]
			}
		}
	}
	for w, x := range seen {
		for ; x != 0; x &= x - 1 {
			sol.Covered = append(sol.Covered, int32(w<<6|bits.TrailingZeros64(x)))
		}
	}
	sort.SliceStable(sol.Clusters, func(a, b int) bool {
		return sol.Clusters[a].Avg() > sol.Clusters[b].Avg()
	})
	assertSolutionInvariants(sol)
	return sol
}

// Validate checks every feasibility condition of Definition 4.1 against the
// solution: size, top-L coverage, pairwise distance, and incomparability.
// It is used pervasively in tests and is part of the public contract.
func Validate(ix *lattice.Index, p Params, sol *Solution) error {
	if err := p.Validate(ix); err != nil {
		return err
	}
	if len(sol.Clusters) == 0 {
		return fmt.Errorf("summarize: empty solution")
	}
	if len(sol.Clusters) > p.K {
		return fmt.Errorf("summarize: %d clusters exceed k = %d", len(sol.Clusters), p.K)
	}
	covered := newBitset(ix.Space.N())
	for _, t := range sol.Covered {
		covered.set(t)
	}
	// Covered must equal the union of cluster coverage.
	union := newBitset(ix.Space.N())
	var sum float64
	n := 0
	for _, c := range sol.Clusters {
		for _, t := range c.Cov {
			if !union.has(t) {
				union.set(t)
				sum += ix.Space.Vals[t]
				n++
			}
		}
	}
	if n != len(sol.Covered) {
		return fmt.Errorf("summarize: Covered has %d tuples but cluster union has %d", len(sol.Covered), n)
	}
	if diff := sum - sol.Sum; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("summarize: Sum = %v but cluster union sums to %v", sol.Sum, sum)
	}
	for rank := 0; rank < p.L; rank++ {
		if !covered.has(int32(rank)) {
			return fmt.Errorf("summarize: top-%d tuple at rank %d is not covered", p.L, rank+1)
		}
	}
	for i, a := range sol.Clusters {
		for _, b := range sol.Clusters[i+1:] {
			if d := pattern.Distance(a.Pat, b.Pat); d < p.D {
				return fmt.Errorf("summarize: clusters %v and %v at distance %d < D = %d",
					ix.Space.FormatPattern(a.Pat), ix.Space.FormatPattern(b.Pat), d, p.D)
			}
			if pattern.Comparable(a.Pat, b.Pat) {
				return fmt.Errorf("summarize: clusters %v and %v are comparable",
					ix.Space.FormatPattern(a.Pat), ix.Space.FormatPattern(b.Pat))
			}
		}
	}
	return nil
}

// Stats reports evaluation-work counters from one algorithm run, for the
// Delta-Judgment ablation (Figure 8b): FullEvals counts candidate
// evaluations that scanned the candidate's full coverage; DeltaEvals counts
// evaluations answered from the Delta-Judgment cache.
type Stats struct {
	FullEvals  int
	DeltaEvals int
}

// Objective selects the optimization target of the greedy algorithms.
type Objective int

const (
	// MaxAvg maximizes the average value of covered tuples (the paper's
	// primary objective, Definition 4.1).
	MaxAvg Objective = iota
	// MinSize minimizes the number of redundant covered elements (the
	// alternative objective of the paper's footnote 5; it tends to miss
	// global properties but produces tighter clusters).
	MinSize
)

// config collects algorithm options.
type config struct {
	delta   bool
	hybridC int
	rng     *rand.Rand
	stats   *Stats
	obj     Objective
}

func defaultConfig() config {
	return config{delta: true, hybridC: 2}
}

// Option customizes algorithm behaviour.
type Option func(*config)

// WithDelta enables or disables the Delta-Judgment optimization (Section
// 6.3). It is on by default. In exact arithmetic it never changes results;
// in floating point, cached marginals can differ from freshly scanned ones
// in the last ulps, which may flip the greedy choice between merges of
// (essentially) equal value.
func WithDelta(on bool) Option { return func(c *config) { c.delta = on } }

// WithHybridFactor sets the Hybrid algorithm's candidate-pool factor c > 1:
// the Fixed-Order phase targets c*k clusters before the Bottom-Up phase
// reduces them to k. The default is 2.
func WithHybridFactor(c int) Option {
	return func(cfg *config) { cfg.hybridC = c }
}

// WithRand supplies the random source for the randomized variants
// (random-Fixed-Order and k-means-Fixed-Order).
func WithRand(rng *rand.Rand) Option { return func(c *config) { c.rng = rng } }

// WithStats has the algorithm write its evaluation-work counters into s.
func WithStats(s *Stats) Option { return func(c *config) { c.stats = s } }

// WithObjective selects the greedy optimization target (default MaxAvg).
func WithObjective(o Objective) Option { return func(c *config) { c.obj = o } }

// finish snapshots the workset into a Solution and reports stats if asked.
func finish(ws *workset, cfg *config) *Solution {
	if cfg.stats != nil {
		cfg.stats.FullEvals += ws.evalFull
		cfg.stats.DeltaEvals += ws.evalDelta
	}
	return ws.solution()
}

// LowerBound returns the paper's trivial baseline: the single all-star
// cluster, feasible for every parameter setting.
func LowerBound(ix *lattice.Index) *Solution {
	return newSolution(ix, []*lattice.Cluster{ix.AllStar()})
}

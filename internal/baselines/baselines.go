// Package baselines implements the four related-work approaches the paper
// compares against qualitatively in Appendix A.5: smart drill-down
// (Joglekar et al., ICDE 2016), diversified top-k (Qin et al., PVLDB 2012),
// DisC diversity (Drosou and Pitoura, PVLDB 2012), and the MMR-based
// λ-parameterized diversification of Vieira et al. (ICDE 2011). They share
// the lattice.Space element model so their outputs can be compared directly
// against the paper's clusters.
package baselines

import (
	"fmt"
	"sort"

	"qagview/internal/lattice"
	"qagview/internal/pattern"
)

// Scope selects which elements a baseline operates on.
type Scope int

const (
	// ScopeAll uses every element of the answer space.
	ScopeAll Scope = iota
	// ScopeTopL uses only the top-L elements.
	ScopeTopL
)

// Rule is one smart-drill-down output rule with its scoring components.
type Rule struct {
	// Cluster is the rule's pattern with coverage.
	Cluster *lattice.Cluster
	// MarginalCount is MCount(r, R): elements covered by r and none of the
	// preceding rules, within the scope.
	MarginalCount int
	// Weight is W(r): the number of non-* attributes.
	Weight int
	// Val is the average value of the marginal elements (the paper's
	// relevance extension of the smart-drill-down score).
	Val float64
	// Score is MarginalCount * Weight * Val.
	Score float64
}

// SmartDrillDown greedily selects k rules maximizing the marginal score
// MCount(r, R) x W(r) x val(r), per Appendix A.5.1. Candidate rules are the
// generated clusters of the index; scope restricts both candidate coverage
// counting and the element universe.
func SmartDrillDown(ix *lattice.Index, k int, scope Scope) ([]Rule, error) {
	if k < 1 {
		return nil, fmt.Errorf("baselines: k = %d, want >= 1", k)
	}
	limit := ix.Space.N()
	if scope == ScopeTopL {
		limit = ix.L
	}
	covered := make([]bool, ix.Space.N())
	var out []Rule
	for len(out) < k {
		var best *Rule
		for id := int32(0); id < int32(ix.NumClusters()); id++ {
			c := ix.Cluster(id)
			w := ix.Space.M() - c.Pat.Level()
			if w == 0 {
				continue // the all-star rule carries zero weight
			}
			mc := 0
			sum := 0.0
			for _, t := range c.Cov {
				if int(t) < limit && !covered[t] {
					mc++
					sum += ix.Space.Vals[t]
				}
			}
			if mc == 0 {
				continue
			}
			val := sum / float64(mc)
			score := float64(mc) * float64(w) * val
			if best == nil || score > best.Score {
				best = &Rule{Cluster: c, MarginalCount: mc, Weight: w, Val: val, Score: score}
			}
		}
		if best == nil {
			break // everything in scope is covered
		}
		for _, t := range best.Cluster.Cov {
			if int(t) < limit {
				covered[t] = true
			}
		}
		out = append(out, *best)
	}
	return out, nil
}

// DiversifiedTopKGreedy selects up to k of the top-L elements in descending
// value order, keeping only elements at distance >= D from every selected
// one, per the diversified top-k formulation of Appendix A.5.2. It returns
// selected ranks (0-based).
func DiversifiedTopKGreedy(s *lattice.Space, L, k, D int) ([]int, error) {
	if err := checkElemParams(s, L, k, D); err != nil {
		return nil, err
	}
	var chosen []int
	for rank := 0; rank < L && len(chosen) < k; rank++ {
		ok := true
		for _, c := range chosen {
			if pattern.TupleDistance(s.Tuples[rank], s.Tuples[c]) < D {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, rank)
		}
	}
	return chosen, nil
}

// DiversifiedTopKExact maximizes the sum of values over subsets of at most k
// top-L elements with pairwise distance >= D, by branch and bound. Use only
// for small L.
func DiversifiedTopKExact(s *lattice.Space, L, k, D int) ([]int, error) {
	if err := checkElemParams(s, L, k, D); err != nil {
		return nil, err
	}
	var best []int
	bestSum := -1.0
	var cur []int
	var rec func(start int, sum float64)
	rec = func(start int, sum float64) {
		if sum > bestSum {
			bestSum = sum
			best = append(best[:0], cur...)
		}
		if len(cur) == k {
			return
		}
		// Upper bound: add the next k-len largest remaining values.
		bound := sum
		for i, left := start, k-len(cur); i < L && left > 0; i, left = i+1, left-1 {
			bound += s.Vals[i]
		}
		if bound <= bestSum {
			return
		}
		for rank := start; rank < L; rank++ {
			ok := true
			for _, c := range cur {
				if pattern.TupleDistance(s.Tuples[rank], s.Tuples[c]) < D {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur = append(cur, rank)
			rec(rank+1, sum+s.Vals[rank])
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, 0)
	sort.Ints(best)
	return best, nil
}

// DisC computes a greedy DisC-diverse subset of the top-L elements for
// radius r (Appendix A.5.3): chosen elements are pairwise at distance > r,
// and every top-L element is within distance <= r of a chosen one. Scanning
// in descending value order yields a maximal independent set, which is also
// dominating under the metric. It returns chosen ranks.
func DisC(s *lattice.Space, L, r int) ([]int, error) {
	if L < 1 || L > s.N() {
		return nil, fmt.Errorf("baselines: L = %d out of range [1, %d]", L, s.N())
	}
	if r < 0 || r > s.M() {
		return nil, fmt.Errorf("baselines: radius = %d out of range [0, %d]", r, s.M())
	}
	var chosen []int
	for rank := 0; rank < L; rank++ {
		ok := true
		for _, c := range chosen {
			if pattern.TupleDistance(s.Tuples[rank], s.Tuples[c]) <= r {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, rank)
		}
	}
	return chosen, nil
}

// MMR is the λ-parameterized maximal-marginal-relevance selection of
// Appendix A.5.4 over the top-L elements: greedily pick the element
// maximizing (1-λ) * normalized value + λ * normalized distance to the
// closest already-selected element. λ = 0 degenerates to the top-k by value;
// λ = 1 ignores values after the first pick. It returns selected ranks in
// selection order.
func MMR(s *lattice.Space, L, k int, lambda float64) ([]int, error) {
	if err := checkElemParams(s, L, k, 0); err != nil {
		return nil, err
	}
	if lambda < 0 || lambda > 1 {
		return nil, fmt.Errorf("baselines: lambda = %v out of [0, 1]", lambda)
	}
	maxVal := s.Vals[0]
	if maxVal == 0 {
		maxVal = 1
	}
	m := float64(s.M())
	used := make([]bool, L)
	var chosen []int
	for len(chosen) < k && len(chosen) < L {
		best := -1
		bestScore := 0.0
		for rank := 0; rank < L; rank++ {
			if used[rank] {
				continue
			}
			rel := s.Vals[rank] / maxVal
			div := 1.0
			for _, c := range chosen {
				d := float64(pattern.TupleDistance(s.Tuples[rank], s.Tuples[c])) / m
				if d < div {
					div = d
				}
			}
			score := (1-lambda)*rel + lambda*div
			if best < 0 || score > bestScore {
				best = rank
				bestScore = score
			}
		}
		used[best] = true
		chosen = append(chosen, best)
	}
	return chosen, nil
}

// NeighborhoodAvg returns, for a chosen representative rank, the average
// value of top-L elements within distance < D of it (including itself) —
// the "avg score" column the paper reports when comparing representative-
// element baselines against cluster summaries.
func NeighborhoodAvg(s *lattice.Space, L, rank, d int) float64 {
	sum, cnt := 0.0, 0
	for r := 0; r < L; r++ {
		if pattern.TupleDistance(s.Tuples[rank], s.Tuples[r]) < d {
			sum += s.Vals[r]
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

func checkElemParams(s *lattice.Space, L, k, d int) error {
	if L < 1 || L > s.N() {
		return fmt.Errorf("baselines: L = %d out of range [1, %d]", L, s.N())
	}
	if k < 1 {
		return fmt.Errorf("baselines: k = %d, want >= 1", k)
	}
	if d < 0 || d > s.M() {
		return fmt.Errorf("baselines: D = %d out of range [0, %d]", d, s.M())
	}
	return nil
}

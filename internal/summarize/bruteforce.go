package summarize

import (
	"fmt"

	"qagview/internal/lattice"
	"qagview/internal/pattern"
)

// DefaultBruteForceBudget bounds the number of search nodes BruteForce
// explores before giving up. The paper's brute force needed hours already at
// k = 4 (Section 7.1); the budget keeps the exact solver usable for the
// small instances where it is meaningful.
const DefaultBruteForceBudget = 50_000_000

// ErrBudgetExceeded reports that the exact search exceeded its node budget.
var ErrBudgetExceeded = fmt.Errorf("summarize: brute-force node budget exceeded")

// BruteForce finds the exact Max-Avg optimum by branch-and-bound over the
// generated cluster space. The search branches on clusters covering the
// first uncovered top-L tuple, and once coverage is complete tries feasible
// extensions in id order. It is exponential; use it only for small L and k
// (the Figure 5 comparison uses L = 5, k <= 4).
func BruteForce(ix *lattice.Index, p Params) (*Solution, error) {
	return BruteForceBudget(ix, p, DefaultBruteForceBudget)
}

// BruteForceBudget is BruteForce with an explicit node budget.
func BruteForceBudget(ix *lattice.Index, p Params, budget int) (*Solution, error) {
	if err := p.Validate(ix); err != nil {
		return nil, err
	}
	// coverers[rank] lists clusters covering the rank-th top tuple.
	coverers := make([][]int32, p.L)
	for id := int32(0); id < int32(ix.NumClusters()); id++ {
		c := ix.Cluster(id)
		for _, t := range c.Cov {
			if int(t) < p.L {
				coverers[t] = append(coverers[t], c.ID)
			}
		}
	}
	s := &bfSearch{
		ix:      ix,
		p:       p,
		cov:     coverers,
		covered: newBitset(ix.Space.N()),
		budget:  budget,
	}
	if err := s.dfs(); err != nil {
		return nil, err
	}
	if s.best == nil {
		return nil, fmt.Errorf("summarize: no feasible solution found (k=%d, L=%d, D=%d)", p.K, p.L, p.D)
	}
	return newSolution(ix, s.best), nil
}

type bfSearch struct {
	ix  *lattice.Index
	p   Params
	cov [][]int32

	chosen    []*lattice.Cluster
	covered   bitset // covered tuples (whole space)
	topMask   uint64 // covered top-L tuples (L <= 64 enforced below)
	sum       float64
	cnt       int
	nodes     int
	budget    int
	best      []*lattice.Cluster
	bestAvg   float64
	haveSolve bool
}

// feasibleWith reports whether c can join the chosen set: pairwise distance
// >= D and incomparable with every chosen cluster.
func (s *bfSearch) feasibleWith(c *lattice.Cluster) bool {
	for _, o := range s.chosen {
		if pattern.Distance(c.Pat, o.Pat) < s.p.D {
			return false
		}
		if pattern.Comparable(c.Pat, o.Pat) {
			return false
		}
	}
	return true
}

// push adds c and returns the undo list of newly covered tuples.
func (s *bfSearch) push(c *lattice.Cluster) []int32 {
	var newly []int32
	for _, t := range c.Cov {
		if !s.covered.has(t) {
			s.covered.set(t)
			s.sum += s.ix.Space.Vals[t]
			s.cnt++
			newly = append(newly, t)
			if int(t) < s.p.L {
				s.topMask |= 1 << uint(t)
			}
		}
	}
	s.chosen = append(s.chosen, c)
	return newly
}

func (s *bfSearch) pop(c *lattice.Cluster, newly []int32) {
	s.chosen = s.chosen[:len(s.chosen)-1]
	for _, t := range newly {
		s.covered[t>>6] &^= 1 << (uint(t) & 63)
		s.sum -= s.ix.Space.Vals[t]
		s.cnt--
		if int(t) < s.p.L {
			s.topMask &^= 1 << uint(t)
		}
	}
}

func (s *bfSearch) record() {
	if s.cnt == 0 {
		return
	}
	avg := s.sum / float64(s.cnt)
	if !s.haveSolve || avg > s.bestAvg {
		s.haveSolve = true
		s.bestAvg = avg
		s.best = append(s.best[:0], s.chosen...)
	}
}

func (s *bfSearch) dfs() error {
	if s.p.L > 64 {
		return fmt.Errorf("summarize: brute force supports L <= 64, got %d", s.p.L)
	}
	full := uint64(1)<<uint(s.p.L) - 1
	var rec func(minExt int32) error
	rec = func(minExt int32) error {
		s.nodes++
		if s.nodes > s.budget {
			return ErrBudgetExceeded
		}
		if s.topMask == full {
			s.record()
			if len(s.chosen) == s.p.K {
				return nil
			}
			// Extension phase: add feasible clusters in id order. Extensions
			// can only help by raising the average with high-valued
			// redundant tuples.
			for id := minExt; id < int32(s.ix.NumClusters()); id++ {
				c := s.ix.Cluster(id)
				if !s.feasibleWith(c) {
					continue
				}
				newly := s.push(c)
				if err := rec(id + 1); err != nil {
					return err
				}
				s.pop(c, newly)
			}
			return nil
		}
		if len(s.chosen) == s.p.K {
			return nil // cannot cover the rest
		}
		// Branch on clusters covering the first uncovered top tuple.
		var rank int
		for rank = 0; rank < s.p.L; rank++ {
			if s.topMask&(1<<uint(rank)) == 0 {
				break
			}
		}
		for _, id := range s.cov[rank] {
			c := s.ix.Cluster(id)
			if !s.feasibleWith(c) {
				continue
			}
			newly := s.push(c)
			if err := rec(0); err != nil {
				return err
			}
			s.pop(c, newly)
		}
		return nil
	}
	return rec(0)
}

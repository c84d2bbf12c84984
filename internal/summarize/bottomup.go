package summarize

import (
	"qagview/internal/lattice"
	"qagview/internal/pattern"
)

// pairInfo is one candidate merge between two clusters of the working
// solution. lca is the id of their LCA cluster, computed lazily (-1 until
// first evaluation).
type pairInfo struct {
	a, b int32
	lca  int32
	dist int32
}

// pairSet incrementally maintains the candidate merge pairs over the working
// solution: pairs whose endpoints left the solution are dropped lazily, and
// merging appends pairs between the merged cluster and the survivors. This
// avoids recomputing the quadratic pair set every greedy round. The pairs
// buffer is retained across init calls, so a reused replay state rebuilds
// its pair set without reallocating.
type pairSet struct {
	ws    *workset
	pairs []pairInfo
}

func newPairSet(ws *workset) *pairSet {
	ps := &pairSet{}
	ps.init(ws)
	return ps
}

// init rebuilds the pair set over ws's current solution, reusing the pairs
// buffer.
func (ps *pairSet) init(ws *workset) {
	ps.ws = ws
	ps.pairs = ps.pairs[:0]
	for i, a := range ws.ids {
		for _, b := range ws.ids[i+1:] {
			ps.pairs = append(ps.pairs, pairInfo{
				a: a, b: b, lca: -1,
				dist: int32(ws.ix.Distance(a, b)),
			})
		}
	}
}

// sortedIDs returns a fresh copy of the current solution's cluster ids,
// ascending, for callers that outlive the workset's next mutation (sweep
// snapshots).
func sortedIDs(ws *workset) []int32 {
	return append([]int32(nil), ws.ids...)
}

// evaluator scores a candidate merged cluster; higher is better. The
// standard UpdateSolution criterion is the tentative solution average
// (ws.evalAdd); the max-LCA variant uses the LCA's own average.
type evaluator func(lca *lattice.Cluster) float64

// best scans the live pairs, compacting out dead ones, and returns the pair
// maximizing eval among those passing the filter (nil filter accepts all
// pairs, as in the second phase of Algorithm 1). ok is false when no live
// pair passes the filter. The LCA of a pair is filled lazily, only once a
// pair survives compaction and passes the filter for the first time.
func (ps *pairSet) best(filter func(dist int) bool, eval evaluator) (pairInfo, bool) {
	alive := ps.pairs[:0]
	var best pairInfo
	bestVal := 0.0
	found := false
	for _, pi := range ps.pairs {
		if !ps.ws.has(pi.a) || !ps.ws.has(pi.b) {
			continue // an endpoint was merged away; drop the pair
		}
		if filter == nil || filter(int(pi.dist)) {
			if pi.lca < 0 {
				id, err := ps.ws.lcaID(pi.a, pi.b)
				if err != nil {
					// Clusters in a workset always come from its index; treat a
					// miss as impossible-by-construction.
					panic(err)
				}
				pi.lca = id
			}
			v := eval(ps.ws.ix.Cluster(pi.lca))
			if !found || v > bestVal {
				found = true
				bestVal = v
				best = pi
			}
		}
		alive = append(alive, pi)
	}
	ps.pairs = alive
	return best, found
}

// merge applies the chosen pair: replaces its endpoints (and anything the
// LCA covers) with the LCA cluster and adds candidate pairs between the new
// cluster and the survivors. A pair best returned carries its LCA; any
// other has it resolved here.
func (ps *pairSet) merge(pi pairInfo) error {
	if pi.lca < 0 {
		id, err := ps.ws.lcaID(pi.a, pi.b)
		if err != nil {
			return err
		}
		pi.lca = id
	}
	lca := ps.ws.ix.Cluster(pi.lca)
	ps.ws.add(lca) // covers both endpoints, so both leave the solution
	for _, id := range ps.ws.ids {
		if id == lca.ID {
			continue
		}
		x, y := lca.ID, id
		if x > y {
			x, y = y, x
		}
		ps.pairs = append(ps.pairs, pairInfo{
			a: x, b: y, lca: -1,
			dist: int32(ps.ws.ix.Distance(lca.ID, id)),
		})
	}
	return nil
}

// bottomUpPhases runs the two phases of Algorithm 1 on the current working
// solution: first merge pairs violating the distance constraint, then merge
// down to the size constraint. eval scores candidate merges.
func bottomUpPhases(ws *workset, p Params, eval evaluator) error {
	ps := newPairSet(ws)
	// Phase 1: enforce pairwise distance >= D.
	for {
		pi, ok := ps.best(func(d int) bool { return d < p.D }, eval)
		if !ok {
			break
		}
		if err := ps.merge(pi); err != nil {
			return err
		}
	}
	// Phase 2: enforce |O| <= k, considering all pairs.
	for ws.size() > p.K {
		pi, ok := ps.best(nil, eval)
		if !ok {
			break
		}
		if err := ps.merge(pi); err != nil {
			return err
		}
	}
	return nil
}

// BottomUp is Algorithm 1: start from the top-L singleton clusters and
// greedily merge, first to satisfy the distance constraint, then the size
// constraint, choosing at each step the merge that maximizes the tentative
// solution average.
func BottomUp(ix *lattice.Index, p Params, opts ...Option) (*Solution, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := p.Validate(ix); err != nil {
		return nil, err
	}
	ws := newWorkset(ix, cfg.delta)
	ws.obj = cfg.obj
	for rank := 0; rank < p.L; rank++ {
		ws.add(ix.Singleton(rank))
	}
	if err := bottomUpPhases(ws, p, ws.evalAdd); err != nil {
		return nil, err
	}
	return finish(ws, &cfg), nil
}

// BottomUpMaxLCA is the Section 5.1 variant that greedily merges the pair
// whose LCA has the maximum own average, instead of maximizing the overall
// solution average. The paper found it comparable or worse; it is kept for
// the ablation experiments.
func BottomUpMaxLCA(ix *lattice.Index, p Params, opts ...Option) (*Solution, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := p.Validate(ix); err != nil {
		return nil, err
	}
	ws := newWorkset(ix, cfg.delta)
	ws.obj = cfg.obj
	for rank := 0; rank < p.L; rank++ {
		ws.add(ix.Singleton(rank))
	}
	if err := bottomUpPhases(ws, p, func(lca *lattice.Cluster) float64 { return lca.Avg() }); err != nil {
		return nil, err
	}
	return finish(ws, &cfg), nil
}

// levelStartLevel clamps the seed level of BottomUpLevelStart to [0, m]: the
// variant seeds with each top tuple's ancestor at level D-1, which is below
// the lattice for D = 0 and above it for D > m+1 (parameter validation keeps
// public callers at D <= m, but the clamp makes the helper total).
func levelStartLevel(D, m int) int {
	level := D - 1
	if level < 0 {
		level = 0
	}
	if level > m {
		level = m
	}
	return level
}

// BottomUpLevelStart is the Section 5.1 variant that seeds the working
// solution with, for each top-L tuple, its ancestor at level D-1 (which
// already satisfies the distance constraint between distinct seeds derived
// from the monotonicity property), then runs the two phases.
func BottomUpLevelStart(ix *lattice.Index, p Params, opts ...Option) (*Solution, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := p.Validate(ix); err != nil {
		return nil, err
	}
	level := levelStartLevel(p.D, ix.Space.M())
	ws := newWorkset(ix, cfg.delta)
	ws.obj = cfg.obj
	for rank := 0; rank < p.L; rank++ {
		t := ix.Space.Tuples[rank]
		anc := t.Clone()
		// Deterministically star the trailing `level` attributes.
		for j := len(anc) - level; j < len(anc); j++ {
			anc[j] = pattern.Star
		}
		c, ok := ix.Lookup(anc)
		if !ok {
			// Ancestors of top-L tuples are always generated.
			panic("summarize: level-start ancestor missing from index")
		}
		// Skip seeds covered by an existing seed to keep the antichain.
		skip := false
		for _, id := range ws.ids {
			if ws.ix.Covers(id, c.ID) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		ws.add(c)
	}
	if err := bottomUpPhases(ws, p, ws.evalAdd); err != nil {
		return nil, err
	}
	return finish(ws, &cfg), nil
}

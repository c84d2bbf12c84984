package summarize

import (
	"qagview/internal/lattice"
)

// fixedOrderProcess runs one step of Algorithm 3 for candidate cluster cand
// (a singleton for the plain algorithm; possibly a starred seed pattern for
// the variants): skip if already subsumed, add if room and diverse enough,
// otherwise merge into the best existing cluster.
func fixedOrderProcess(ws *workset, p Params, cand *lattice.Cluster) error {
	// Subsumption: if an existing cluster covers cand, everything cand
	// covers is already covered and adding it would break the antichain.
	for _, id := range ws.ids {
		if ws.ix.Covers(id, cand.ID) {
			return nil
		}
	}
	if ws.size() < p.K {
		minDist := int(^uint(0) >> 1)
		for _, id := range ws.ids {
			if d := ws.ix.Distance(cand.ID, id); d < minDist {
				minDist = d
			}
		}
		if ws.size() == 0 || minDist >= p.D {
			ws.add(cand)
			return nil
		}
		// Merge with the best partner among clusters violating the distance.
		return mergeBestPartner(ws, cand, func(d int) bool { return d < p.D })
	}
	// Solution is full: merge with the best partner among all clusters.
	return mergeBestPartner(ws, cand, nil)
}

// mergeBestPartner merges cand into the existing cluster whose LCA with cand
// maximizes the tentative solution average, among partners whose distance to
// cand passes the filter.
func mergeBestPartner(ws *workset, cand *lattice.Cluster, filter func(dist int) bool) error {
	var best *lattice.Cluster
	bestVal := 0.0
	for _, id := range ws.ids {
		if filter != nil && !filter(ws.ix.Distance(cand.ID, id)) {
			continue
		}
		// Each candidate meets each partner once, so the LCA comes straight
		// from the packed keys: a memo would only insert.
		lcaID, err := ws.ix.LCAID(id, cand.ID)
		if err != nil {
			return err
		}
		lca := ws.ix.Cluster(lcaID)
		v := ws.evalAdd(lca)
		if best == nil || v > bestVal {
			best = lca
			bestVal = v
		}
	}
	if best == nil {
		// No partner passed the filter; this cannot happen for the distance
		// filter because it is only consulted when a violating pair exists.
		panic("summarize: no merge partner")
	}
	ws.add(best)
	return nil
}

// fixedOrderPhase processes optional seed clusters first, then the top-L
// elements in descending value order (Algorithm 3).
func fixedOrderPhase(ws *workset, p Params, seeds []*lattice.Cluster) error {
	for _, s := range seeds {
		if err := fixedOrderProcess(ws, p, s); err != nil {
			return err
		}
	}
	for rank := 0; rank < p.L; rank++ {
		if ws.covered.has(int32(rank)) {
			continue
		}
		if err := fixedOrderProcess(ws, p, ws.ix.Singleton(rank)); err != nil {
			return err
		}
	}
	return nil
}

// FixedOrder is Algorithm 3: build the solution incrementally, considering
// the top-L elements once each in descending value order. It is faster than
// Bottom-Up (it considers at most k candidate merges per element instead of
// a quadratic pair set) but explores a smaller solution space.
func FixedOrder(ix *lattice.Index, p Params, opts ...Option) (*Solution, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := p.Validate(ix); err != nil {
		return nil, err
	}
	ws := newWorkset(ix, cfg.delta)
	ws.obj = cfg.obj
	if err := fixedOrderPhase(ws, p, nil); err != nil {
		return nil, err
	}
	return finish(ws, &cfg), nil
}

// Hybrid is the Section 5.3 algorithm: a Fixed-Order phase targeting c*k
// clusters (c = the hybrid factor, default 2) followed by the Bottom-Up
// merging phases that reduce the candidate pool to k. It approaches
// Bottom-Up quality at closer to Fixed-Order cost, and its Bottom-Up phase
// supports the incremental precomputation of Section 6.
func Hybrid(ix *lattice.Index, p Params, opts ...Option) (*Solution, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := p.Validate(ix); err != nil {
		return nil, err
	}
	if cfg.hybridC < 1 {
		cfg.hybridC = 1
	}
	ws := newWorkset(ix, cfg.delta)
	ws.obj = cfg.obj
	pool := p
	pool.K = cfg.hybridC * p.K
	if err := fixedOrderPhase(ws, pool, nil); err != nil {
		return nil, err
	}
	if err := bottomUpPhases(ws, p, ws.evalAdd); err != nil {
		return nil, err
	}
	return finish(ws, &cfg), nil
}

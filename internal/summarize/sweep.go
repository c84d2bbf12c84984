package summarize

import (
	"fmt"
	"sort"
	"sync"

	"qagview/internal/lattice"
)

// Sweeper supports the incremental computation of Section 6.2: the Hybrid
// algorithm's Fixed-Order phase runs once per L (with a candidate pool sized
// for the largest k of interest and no distance constraint), and its output
// is reused as the starting state of the Bottom-Up phase for every (k, D)
// combination.
//
// Replays draw their mutable state from the sweeper's free list of
// resettable replay states, so a (k, D) precompute grid reuses worksets,
// coverage bitmaps, Delta-Judgment caches, pair buffers, and LCA memos
// across Ds instead of reallocating them per replay. The list is the
// sweeper's own, not a sync.Pool: a replay state points at its index, and
// a pool would keep a dead session's index reachable until the runtime got
// round to dropping it, two GC cycles later.
type Sweeper struct {
	ix   *Index
	cfg  config
	l    int
	kMax int
	base *workset // state after the shared Fixed-Order phase

	mu    sync.Mutex
	free  []*replayState // idle replay states
	stats ReplayStats
}

// Index aliases lattice.Index to keep signatures in this package short.
type Index = lattice.Index

// replayState is the reusable mutable state of one Bottom-Up replay: a dense
// workset plus the pair buffer of its pair set.
type replayState struct {
	ws *workset
	ps pairSet
}

// ReplayStats aggregates allocation-avoidance and memoization counters over
// a sweeper's replays, for the precompute experiments.
type ReplayStats struct {
	// Replays counts RunD calls that checked out a replay state (errored
	// replays included — their state still returns to the free list).
	Replays int
	// PooledReuses counts replays that reused an idle state instead of
	// allocating a fresh one (allocations avoided: one full workset — dense
	// membership and cache arrays, two bitmaps, pair buffer, LCA memo — per
	// reuse).
	PooledReuses int
	// LCAMemoHits and LCAMemoMisses count LCA lookups answered from the
	// id-indexed memo vs computed against the lattice.
	LCAMemoHits   int
	LCAMemoMisses int
}

// SweepState is one snapshot of the Bottom-Up phase: the solution in effect
// for every k in [Size, prevSize-1].
type SweepState struct {
	// Clusters holds the cluster ids of the solution.
	Clusters []int32
	// Size is len(Clusters).
	Size int
	// Sum and Count give the objective numerator and denominator.
	Sum   float64
	Count int
}

// Avg returns the objective value of the state.
func (s *SweepState) Avg() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// SweepStates is the Bottom-Up trace for one D: states in strictly
// decreasing size order. The solution for a given k is the first state with
// Size <= k.
type SweepStates struct {
	D      int
	States []SweepState
}

// SolutionFor returns the state in effect for k, or false if k is below the
// smallest recorded size.
func (ss *SweepStates) SolutionFor(k int) (*SweepState, bool) {
	// Size is strictly decreasing, so Size <= k is monotone over the trace:
	// binary-search the first state satisfying it.
	i := sort.Search(len(ss.States), func(i int) bool { return ss.States[i].Size <= k })
	if i == len(ss.States) {
		return nil, false
	}
	return &ss.States[i], true
}

// NewSweeper runs the shared Fixed-Order phase for coverage L with a
// candidate pool of c*kMax clusters and no distance constraint, returning a
// sweeper whose RunD replays the Bottom-Up phase per D.
func NewSweeper(ix *Index, L, kMax int, opts ...Option) (*Sweeper, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.hybridC < 1 {
		cfg.hybridC = 1
	}
	p := Params{K: kMax * cfg.hybridC, L: L, D: 0}
	if err := p.Validate(ix); err != nil {
		return nil, err
	}
	ws := newWorkset(ix, cfg.delta)
	ws.obj = cfg.obj
	if err := fixedOrderPhase(ws, p, nil); err != nil {
		return nil, err
	}
	return &Sweeper{ix: ix, cfg: cfg, l: L, kMax: kMax, base: ws}, nil
}

// PhaseStats returns the evaluation counters of the shared Fixed-Order
// phase that built the sweeper (by NewSweeper or Warm).
func (sw *Sweeper) PhaseStats() Stats {
	return Stats{FullEvals: sw.base.evalFull, DeltaEvals: sw.base.evalDelta}
}

// PoolSize returns the number of clusters after the shared phase.
func (sw *Sweeper) PoolSize() int { return sw.base.size() }

// Index returns the cluster space the sweeper replays over.
func (sw *Sweeper) Index() *Index { return sw.ix }

// L returns the coverage parameter of the shared Fixed-Order phase.
func (sw *Sweeper) L() int { return sw.l }

// KMax returns the largest solution size the sweeper was provisioned for.
func (sw *Sweeper) KMax() int { return sw.kMax }

// Stats returns a snapshot of the sweeper's replay counters. It is safe to
// call concurrently with RunD.
func (sw *Sweeper) Stats() ReplayStats {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.stats
}

// getState takes an idle replay state off the free list, or allocates one
// on first use (and whenever more replays run concurrently than states have
// been returned).
func (sw *Sweeper) getState() (st *replayState, reused bool) {
	sw.mu.Lock()
	if n := len(sw.free); n > 0 {
		st = sw.free[n-1]
		sw.free[n-1] = nil
		sw.free = sw.free[:n-1]
	}
	sw.mu.Unlock()
	if st != nil {
		return st, true
	}
	ws := newWorkset(sw.ix, sw.cfg.delta)
	ws.obj = sw.cfg.obj
	ws.lca = sw.ix.NewLCAMemo()
	return &replayState{ws: ws}, false
}

// RunD replays the Bottom-Up phase for one distance constraint D from the
// shared state: first enforcing pairwise distance, then merging down to
// kMin, recording a state after enforcement and after every merge. The
// returned states obey the continuity property (Proposition 6.1): once a
// cluster disappears it never reappears, so each cluster's ks form one
// interval.
//
// RunD is safe for concurrent use: each call takes a private replay state
// off the free list, resets it from the shared Fixed-Order state (which it
// only reads), and returns it to the list when done.
func (sw *Sweeper) RunD(D, kMin int) (*SweepStates, error) {
	if D < 0 || D > sw.ix.Space.M() {
		return nil, fmt.Errorf("summarize: D = %d out of range [0, %d]", D, sw.ix.Space.M())
	}
	if kMin < 1 {
		return nil, fmt.Errorf("summarize: kMin = %d, want >= 1", kMin)
	}
	st, reused := sw.getState()
	ws := st.ws
	ws.resetFrom(sw.base)
	memoHits0, memoMisses0 := ws.lca.Hits(), ws.lca.Misses()
	// Return the state to the free list and record counters on every exit
	// path, so an errored replay neither leaks its state nor skews the stats.
	defer func() {
		sw.mu.Lock()
		sw.stats.Replays++
		if reused {
			sw.stats.PooledReuses++
		}
		sw.stats.LCAMemoHits += ws.lca.Hits() - memoHits0
		sw.stats.LCAMemoMisses += ws.lca.Misses() - memoMisses0
		sw.free = append(sw.free, st)
		sw.mu.Unlock()
	}()
	st.ps.init(ws)
	ps := &st.ps
	// Phase 1: enforce distance D.
	for {
		pi, ok := ps.best(func(d int) bool { return d < D }, ws.evalAdd)
		if !ok {
			break
		}
		if err := ps.merge(pi); err != nil {
			return nil, err
		}
	}
	out := &SweepStates{D: D}
	snapshot := func() {
		st := SweepState{Size: ws.size(), Sum: ws.sum, Count: ws.cnt}
		st.Clusters = sortedIDs(ws)
		out.States = append(out.States, st)
	}
	snapshot()
	// Phase 2: merge down to kMin, one state per strictly smaller size.
	for ws.size() > kMin {
		pi, ok := ps.best(nil, ws.evalAdd)
		if !ok {
			break
		}
		if err := ps.merge(pi); err != nil {
			return nil, err
		}
		snapshot()
	}
	return out, nil
}

// Package precompute implements the interactive parameter-selection support
// of Section 6 of the paper: one shared Fixed-Order phase per L, a Bottom-Up
// replay per distance constraint D that records the solution for every k in
// a range, interval-tree storage exploiting the continuity property
// (Proposition 6.1), O(log Nk) retrieval of the solution for any (k, D), and
// the guidance series behind the Figure 2 visualization.
package precompute

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"qagview/internal/intervaltree"
	"qagview/internal/lattice"
	"qagview/internal/obs"
	"qagview/internal/summarize"
)

// config collects precompute options.
type config struct {
	parallelism int
	sum         []summarize.Option
	ctx         context.Context
	gen         uint64
}

func defaultConfig() config {
	return config{parallelism: runtime.GOMAXPROCS(0), ctx: context.Background()}
}

// Option customizes a precompute run.
type Option func(*config)

// Parallelism sets the number of worker goroutines the per-D Bottom-Up
// replays fan out over. The default is GOMAXPROCS; n <= 1 forces the
// sequential path. Results are identical to sequential regardless of n: the
// replays share only the immutable Fixed-Order state and the per-D entries
// are assembled in D order.
func Parallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithContext attaches ctx to the run. Cancellation is observed between
// per-D replays: no new replay starts once ctx is done, in-flight replays
// finish, and Run returns ctx.Err(). Serving layers use this to abandon
// background sweeps whose session was evicted.
func WithContext(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// ContextOf returns the context opts attach through WithContext, or
// context.Background().
func ContextOf(opts []Option) context.Context {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.ctx
}

// WithSummarize forwards options (Delta-Judgment, hybrid factor, ...) to the
// underlying shared Fixed-Order phase and per-D replays.
func WithSummarize(opts ...summarize.Option) Option {
	return func(c *config) { c.sum = append(c.sum, opts...) }
}

// WithGeneration stamps the store with a data generation: the monotonically
// increasing version of the answer set it was computed over. Serving layers
// use it to tell fresh sweeps from stale ones when live tables change; it
// round-trips through Encode/Decode. The default is 0 (unversioned).
func WithGeneration(gen uint64) Option { return func(c *config) { c.gen = gen } }

// Store holds precomputed solutions for all (k, D) in KMin..KMax x Ds, for
// one coverage parameter L.
type Store struct {
	ix         *lattice.Index
	L          int
	KMin, KMax int
	Ds         []int
	perD       map[int]*dEntry

	gen         uint64
	replayStats summarize.ReplayStats
}

// Generation returns the data generation the store was computed over (see
// WithGeneration); 0 for unversioned stores.
func (s *Store) Generation() uint64 { return s.gen }

// ReplayStats reports the sweeper's allocation-avoidance and memoization
// counters for the run that produced this store: replay-state reuses
// and LCA memo hit rates. Decoded stores report zeros (the replays ran in a
// previous process).
func (s *Store) ReplayStats() summarize.ReplayStats { return s.replayStats }

type dEntry struct {
	tree *intervaltree.Tree
	// ivs is the raw interval list behind tree, kept for serialization.
	ivs []intervaltree.Interval
	// avg[k-KMin] is the objective value of the solution for k.
	avg []float64
	// minSize is the smallest solution size reached for this D.
	minSize int
}

// Run executes the precomputation: the shared Fixed-Order phase sized for
// kMax, then one Bottom-Up replay per D in ds, converting each replay's
// states into per-cluster k-intervals stored in an interval tree. The
// replays are independent given the shared Fixed-Order state, so they fan
// out over a worker pool (see Parallelism); entries are assembled in D
// order, making the store bit-identical to a sequential run.
func Run(ix *lattice.Index, L, kMin, kMax int, ds []int, opts ...Option) (*Store, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := validateGrid(kMin, kMax, ds); err != nil {
		return nil, err
	}
	sw, err := summarize.NewSweeper(ix, L, kMax, cfg.sum...)
	if err != nil {
		return nil, err
	}
	return runStore(sw, kMin, kMax, ds, cfg)
}

// RunSweeper is Run over a caller-owned sweeper — typically one warm-started
// from a previous data generation (summarize.Sweeper.Warm), so a live-table
// refresh reuses the previous sweep's replay states and LCA memos instead of
// allocating from scratch. kMax may not exceed the sweeper's provisioned
// KMax (the shared Fixed-Order pool was sized for it). Summarize options
// belong to the sweeper and are rejected here.
func RunSweeper(sw *summarize.Sweeper, kMin, kMax int, ds []int, opts ...Option) (*Store, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.sum) > 0 {
		return nil, fmt.Errorf("precompute: WithSummarize applies at sweeper construction, not to RunSweeper")
	}
	if err := validateGrid(kMin, kMax, ds); err != nil {
		return nil, err
	}
	if kMax > sw.KMax() {
		return nil, fmt.Errorf("precompute: kMax = %d exceeds the sweeper's provisioned %d", kMax, sw.KMax())
	}
	return runStore(sw, kMin, kMax, ds, cfg)
}

func validateGrid(kMin, kMax int, ds []int) error {
	if kMin < 1 || kMin > kMax {
		return fmt.Errorf("precompute: bad k range [%d, %d]", kMin, kMax)
	}
	if len(ds) == 0 {
		return fmt.Errorf("precompute: no D values")
	}
	seen := make(map[int]bool, len(ds))
	for _, d := range ds {
		if seen[d] {
			return fmt.Errorf("precompute: duplicate D = %d", d)
		}
		seen[d] = true
	}
	return nil
}

func runStore(sw *summarize.Sweeper, kMin, kMax int, ds []int, cfg config) (*Store, error) {
	ctx, sp := obs.StartSpan(cfg.ctx, "precompute.run")
	if sp != nil {
		sp.SetInt("l", int64(sw.L()))
		sp.SetInt("k_min", int64(kMin))
		sp.SetInt("k_max", int64(kMax))
		sp.SetInt("ds", int64(len(ds)))
		cfg.ctx = ctx
	}
	defer sp.End()
	st := &Store{
		ix: sw.Index(), L: sw.L(), KMin: kMin, KMax: kMax,
		Ds:   append([]int(nil), ds...),
		perD: make(map[int]*dEntry, len(ds)),
		gen:  cfg.gen,
	}
	sort.Ints(st.Ds)
	entries, err := runAll(cfg.ctx, sw, st.Ds, kMin, kMax, cfg.parallelism)
	if err != nil {
		return nil, err
	}
	for i, d := range st.Ds {
		st.perD[d] = entries[i]
	}
	st.replayStats = sw.Stats()
	return st, nil
}

// runOne replays the Bottom-Up phase for one D and converts the trace into
// interval storage.
func runOne(sw *summarize.Sweeper, d, kMin, kMax int) (*dEntry, error) {
	states, err := sw.RunD(d, kMin)
	if err != nil {
		return nil, err
	}
	return buildEntry(states, kMin, kMax)
}

// runAll computes the per-D entries, fanning out over up to `parallelism`
// workers. Each worker replays from its own clone of the shared Fixed-Order
// state, so replays never share mutable data (see workset.clone). The error
// reported is the one for the smallest failing D, independent of scheduling;
// cancellation takes precedence over per-D errors.
func runAll(ctx context.Context, sw *summarize.Sweeper, ds []int, kMin, kMax, parallelism int) ([]*dEntry, error) {
	entries := make([]*dEntry, len(ds))
	workers := parallelism
	if workers > len(ds) {
		workers = len(ds)
	}
	parent := obs.FromContext(ctx)
	if workers <= 1 {
		for i, d := range ds {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rsp := parent.Child("replay")
			rsp.SetInt("d", int64(d))
			e, err := runOne(sw, d, kMin, kMax)
			rsp.End()
			if err != nil {
				return nil, err
			}
			entries[i] = e
		}
		return entries, nil
	}
	errs := make([]error, len(ds))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain without starting new replays
				}
				rsp := parent.Child("replay")
				rsp.SetInt("d", int64(ds[i]))
				entries[i], errs[i] = runOne(sw, ds[i], kMin, kMax)
				rsp.End()
			}
		}()
	}
dispatch:
	for i := range ds {
		select {
		case <-ctx.Done():
			break dispatch
		case next <- i:
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// buildEntry converts a per-D sweep trace into interval storage. State i is
// the solution for every k in [Size_i, Size_{i-1}-1] (state 0 extends to
// kMax); per the continuity property each cluster's active ks form one
// interval.
func buildEntry(states *summarize.SweepStates, kMin, kMax int) (*dEntry, error) {
	if len(states.States) == 0 {
		return nil, fmt.Errorf("precompute: empty sweep trace")
	}
	type span struct{ lo, hi int }
	spans := map[int32]span{}
	avg := make([]float64, kMax-kMin+1)
	minSize := states.States[len(states.States)-1].Size

	hi := kMax
	for i := range states.States {
		stt := &states.States[i]
		lo := stt.Size
		if lo > hi {
			// This state is never the answer for any k in range (its size
			// exceeds the remaining k budget).
			continue
		}
		cl, ch := lo, hi
		if cl < kMin {
			cl = kMin
		}
		if ch > kMax {
			ch = kMax
		}
		if cl <= ch {
			for k := cl; k <= ch; k++ {
				avg[k-kMin] = stt.Avg()
			}
			for _, id := range stt.Clusters {
				if sp, ok := spans[id]; ok {
					// States are processed in descending k order, so a
					// cluster's next range must extend its span downward.
					if ch != sp.lo-1 {
						return nil, fmt.Errorf("precompute: continuity violated for cluster %d", id)
					}
					sp.lo = cl
					spans[id] = sp
				} else {
					spans[id] = span{cl, ch}
				}
			}
		}
		hi = lo - 1
		if hi < kMin {
			break
		}
	}
	ivs := make([]intervaltree.Interval, 0, len(spans))
	for id, sp := range spans {
		ivs = append(ivs, intervaltree.Interval{Lo: sp.lo, Hi: sp.hi, Payload: id})
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].Payload < ivs[b].Payload })
	tree, err := intervaltree.Build(ivs)
	if err != nil {
		return nil, err
	}
	return &dEntry{tree: tree, ivs: ivs, avg: avg, minSize: minSize}, nil
}

// Solution retrieves the precomputed solution for (k, D) with one stabbing
// query, reconstructing the covered set from the cluster coverage lists.
func (s *Store) Solution(k, d int) (*summarize.Solution, error) {
	entry, ok := s.perD[d]
	if !ok {
		return nil, fmt.Errorf("precompute: D = %d was not precomputed (have %v)", d, s.Ds)
	}
	if k < s.KMin || k > s.KMax {
		return nil, fmt.Errorf("precompute: k = %d outside precomputed range [%d, %d]", k, s.KMin, s.KMax)
	}
	ivs := entry.tree.StabAll(k)
	if len(ivs) == 0 {
		return nil, fmt.Errorf("precompute: no solution stored for k = %d, D = %d", k, d)
	}
	sol := &summarize.Solution{}
	seen := make(map[int32]bool)
	for _, iv := range ivs {
		c := s.ix.Cluster(iv.Payload)
		sol.Clusters = append(sol.Clusters, c)
		for _, t := range c.Cov {
			if !seen[t] {
				seen[t] = true
				sol.Covered = append(sol.Covered, t)
				sol.Sum += s.ix.Space.Vals[t]
			}
		}
	}
	sort.Slice(sol.Covered, func(a, b int) bool { return sol.Covered[a] < sol.Covered[b] })
	sort.SliceStable(sol.Clusters, func(a, b int) bool {
		return sol.Clusters[a].Avg() > sol.Clusters[b].Avg()
	})
	return sol, nil
}

// Guidance is the data behind the parameter-selection visualization
// (Figure 2): for each D, the objective value of the solution as k varies
// over [KMin, KMax].
type Guidance struct {
	KMin, KMax int
	// Series maps D to values indexed by k-KMin. Entries for k below
	// MinSizes[D] are zero placeholders, not objective values: the sweep
	// never reached a solution that small (Value and Solution error there).
	Series map[int][]float64
	// MinSizes maps D to the smallest solution size the sweep stored.
	MinSizes map[int]int
}

// Stored reports whether Series[d] holds a real objective value at k: a
// solution of size <= k was stored. Entries below MinSizes[d] are zero
// placeholders that renderers should not present as values.
func (g *Guidance) Stored(d, k int) bool {
	ms, ok := g.MinSizes[d]
	return ok && k >= ms && k >= g.KMin && k <= g.KMax
}

// Guidance returns the precomputed guidance series.
func (s *Store) Guidance() *Guidance {
	g := &Guidance{
		KMin: s.KMin, KMax: s.KMax,
		Series:   make(map[int][]float64, len(s.perD)),
		MinSizes: make(map[int]int, len(s.perD)),
	}
	for d, e := range s.perD {
		g.Series[d] = append([]float64(nil), e.avg...)
		g.MinSizes[d] = e.minSize
	}
	return g
}

// Value returns the objective value of the stored solution for (k, D).
func (s *Store) Value(k, d int) (float64, error) {
	entry, ok := s.perD[d]
	if !ok {
		return 0, fmt.Errorf("precompute: D = %d was not precomputed", d)
	}
	if k < s.KMin || k > s.KMax {
		return 0, fmt.Errorf("precompute: k = %d outside [%d, %d]", k, s.KMin, s.KMax)
	}
	if k < entry.minSize {
		// The sweep never reached a solution this small; avg[k-KMin] is a
		// zero-initialized placeholder, not a value. Mirror Solution's error.
		return 0, fmt.Errorf("precompute: no solution stored for k = %d, D = %d", k, d)
	}
	return entry.avg[k-s.KMin], nil
}

// SizeBytes estimates the store's resident memory: the per-D interval lists,
// their interval-tree copies, and the guidance value arrays. Serving layers
// use it for byte-budget cache accounting; it is an estimate, not an exact
// allocator figure.
func (s *Store) SizeBytes() int64 {
	const (
		intervalBytes = 24 // Lo, Hi int + Payload int32, padded
		entryOverhead = 96 // dEntry + tree + node headers, amortized
	)
	n := int64(len(s.Ds)) * 8
	for _, e := range s.perD {
		// Intervals are held twice: the raw list kept for serialization and
		// the centered-tree layout built from it.
		n += int64(len(e.ivs)+e.tree.Len()) * intervalBytes
		n += int64(len(e.avg)) * 8
		n += entryOverhead
	}
	return n
}

// StoredIntervals returns the total number of intervals stored across all D,
// the space figure the interval-tree layout optimizes (O(ND) sets of
// intervals instead of O(Nk x ND) full solutions; Section 6.2).
func (s *Store) StoredIntervals() int {
	n := 0
	for _, e := range s.perD {
		n += e.tree.Len()
	}
	return n
}

// NaiveStoredClusters returns the number of cluster references a naive
// per-(k, D) materialization would store, for comparison in experiments.
func (s *Store) NaiveStoredClusters() (int, error) {
	n := 0
	for _, d := range s.Ds {
		for k := s.KMin; k <= s.KMax; k++ {
			sol, err := s.Solution(k, d)
			if err != nil {
				return 0, err
			}
			n += sol.Size()
		}
	}
	return n, nil
}

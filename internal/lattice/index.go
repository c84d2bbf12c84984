package lattice

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"qagview/internal/pattern"
)

// Cluster is a pattern together with the answer tuples it covers and their
// value sum. Clusters are owned by an Index, stored densely in Index.Clusters,
// and identified by their position there.
type Cluster struct {
	// ID is the cluster's position in Index.Clusters.
	ID int32
	// Cov lists covered tuple indices into Space.Tuples, ascending. It is a
	// view into the index's shared coverage arena: clusters do not own their
	// coverage storage individually.
	Cov []int32
	// Pat is the cluster pattern.
	Pat pattern.Pattern
	// Sum is the total value of covered tuples.
	Sum float64
}

// Size returns |cov(C)|.
func (c *Cluster) Size() int { return len(c.Cov) }

// Avg returns the average value of the covered tuples (Section 4.1).
func (c *Cluster) Avg() float64 {
	if len(c.Cov) == 0 {
		return 0
	}
	return c.Sum / float64(len(c.Cov))
}

// Index is the materialized cluster space for one (S, L) pair: every pattern
// that generalizes at least one top-L tuple, mapped to the tuples it covers.
// All clusters any feasible solution can use come from this set, because a
// useful cluster must cover a top-L tuple or improve the average, and the
// paper's algorithms (like its prototype) draw candidates from exactly this
// generated space.
//
// The cluster space is stored columnar: cluster records live in one dense
// slice (no per-cluster heap objects), and all coverage lists share one
// []int32 arena, with each Cluster.Cov a subslice of it. Every cluster
// pattern is additionally packed into a key of one or more words (see
// pattern.NewCodec): the by-pattern table is keyed on those words, and
// Distance/Covers/LCA between clusters run word-parallel on them.
// Everything is immutable after BuildIndex, so an Index may be shared freely
// across goroutines.
type Index struct {
	// Space is the underlying answer space.
	Space *Space
	// L is the coverage parameter the index was built for.
	L int
	// Clusters lists all generated clusters densely; Clusters[i].ID == i.
	// Pointers into this slice stay valid for the index's lifetime.
	Clusters []Cluster

	// covArena backs every Cluster.Cov, laid out cluster by cluster.
	covArena []int32

	// codec packs patterns into keys of codec.Words() words; keys holds
	// every cluster's key flat in id order, and table maps each key back to
	// its cluster id.
	codec *pattern.Codec
	table *pattern.Table
	keys  []uint64

	singleton []int32 // rank -> cluster id of the concrete pattern, for ranks < L
	allStar   int32
}

// BuildStats reports the work done while building an index, for the
// Figure 8a ablation and the initialization-time and build-throughput
// experiments (figscale).
type BuildStats struct {
	// Generated is the number of distinct clusters generated in phase 1.
	Generated int
	// MappingOps counts tuple→cluster probe operations performed in phase 2;
	// it is N·2^m on the optimized path and |C|·N on the naive path,
	// independent of the worker count.
	MappingOps int
	// KeyWords is the number of 64-bit words in each packed cluster key.
	KeyWords int
	// Workers is the number of goroutines the phase-2 coverage mapping
	// fanned out over (always 1 on the naive path).
	Workers int
	// GenerateMs is the wall-clock time of phase 1, the sequential cluster
	// generation from the top-L tuples.
	GenerateMs float64
	// MapMs is the wall-clock time of phase 2, the tuple→cluster coverage
	// probing (the parallelized part).
	MapMs float64
	// AssembleMs is the wall-clock time of the deterministic counting-sort
	// assembly: computing per-shard arena offsets, scattering hits, and
	// slicing per-cluster coverage with its value sums.
	AssembleMs float64
}

// buildConfig collects BuildIndex options.
type buildConfig struct {
	parallelism int
}

func defaultBuildConfig() buildConfig {
	return buildConfig{parallelism: runtime.GOMAXPROCS(0)}
}

// BuildOption customizes BuildIndex.
type BuildOption func(*buildConfig)

// BuildParallelism sets the number of worker goroutines the phase-2 coverage
// mapping fans out over. The default is GOMAXPROCS; n <= 1 forces the
// sequential path. The built index is bit-identical at any setting: shards
// are assembled in tuple order by a counting sort, so cluster ids, coverage
// lists, and value sums do not depend on the worker count.
func BuildParallelism(n int) BuildOption {
	return func(c *buildConfig) { c.parallelism = n }
}

// BuildIndex builds the cluster space for the top-L tuples of s using the
// optimized strategy of Section 6.3: clusters are generated only from top-L
// tuples (so every cluster covers at least one top-L tuple), and the
// cluster→tuple mapping is computed by probing each tuple's generalizations
// against the generated set, instead of scanning all tuples per cluster.
func BuildIndex(s *Space, L int, opts ...BuildOption) (*Index, error) {
	ix, _, err := buildIndex(s, L, true, opts)
	return ix, err
}

// BuildIndexNaive builds the same index without the mapping optimization:
// after cluster generation, each cluster scans every tuple for coverage.
// It exists to reproduce the Figure 8a ablation; results are identical to
// BuildIndex.
func BuildIndexNaive(s *Space, L int, opts ...BuildOption) (*Index, error) {
	ix, _, err := buildIndex(s, L, false, opts)
	return ix, err
}

// BuildIndexStats is BuildIndex returning work counters.
func BuildIndexStats(s *Space, L int, optimized bool, opts ...BuildOption) (*Index, BuildStats, error) {
	return buildIndex(s, L, optimized, opts)
}

// covHit is one (cluster, tuple) coverage pair recorded during the optimized
// tuple-major mapping pass, before the counting sort into the arena.
type covHit struct {
	cluster int32
	tuple   int32
}

// patArenaChunk is how many cluster patterns share one backing allocation
// during phase 1.
const patArenaChunk = 1024

// mapShard is one worker's slice of the phase-2 coverage mapping: a
// contiguous tuple range with its private hit buffer and per-cluster counts
// (the counts array doubles as the shard's arena write cursor during
// assembly).
type mapShard struct {
	lo, hi int
	hits   []covHit
	counts []int32
	ops    int
}

// generate builds the index skeleton for (s, L): every cluster pattern
// generalizing a top-L tuple, with ids assigned in first-seen enumeration
// order (rank-major, subset-mask-minor, see pattern.Codec.AppendAncestors),
// plus the key table and the singleton/all-star ids. The codec is derived
// from the space's dictionary cardinalities. Coverage is left empty;
// BuildIndex fills it with a full phase-2 mapping pass, Rebase fills it
// incrementally from a previous index. Keeping generation in one function is
// what guarantees an incrementally maintained index assigns the same
// cluster ids as a from-scratch rebuild.
func generate(s *Space, L int) *Index {
	m := s.M()
	ix := &Index{
		Space:     s,
		L:         L,
		codec:     spaceCodec(s),
		singleton: make([]int32, L),
	}
	w := ix.codec.Words()
	// Cluster count is unknown until the dedup runs; the hint trades one
	// possible regrow against over-allocation on star-sparse spaces. The cap
	// keeps wide schemas (the worst case L*2^m is astronomical at
	// m = MaxAttrs) from reserving memory the dedup will never fill — the
	// table and slices regrow fine past it.
	hint := min(L*(1<<m)/4, 1<<20)
	ix.table = pattern.NewTable(w, hint)
	ix.Clusters = make([]Cluster, 0, hint)
	ix.keys = make([]uint64, 0, hint*w)
	// Cluster patterns are carved out of chunked []int32 arenas: one
	// allocation per patArenaChunk patterns instead of one each, which cuts
	// both allocation count and GC scan work for large spaces.
	var patArena []int32
	base := make([]uint64, w)
	keys := make([]uint64, 0, (1<<m)*w)
	ids := make([]int32, 1<<m)
	for rank := 0; rank < L; rank++ {
		ix.codec.Pack(s.Tuples[rank], base)
		keys = ix.codec.AppendAncestors(base, keys[:0])
		// New patterns get the next dense id, which is the next cluster id.
		ix.table.InsertAll(keys, ids)
		// The concrete pattern comes first in its own enumeration.
		ix.singleton[rank] = ids[0]
		for i, id := range ids {
			if int(id) != len(ix.Clusters) {
				continue
			}
			if len(patArena) < m {
				patArena = make([]int32, patArenaChunk*m)
			}
			pat := pattern.Pattern(patArena[:m:m])
			patArena = patArena[m:]
			key := keys[i*w : (i+1)*w]
			ix.codec.Unpack(key, pat)
			ix.Clusters = append(ix.Clusters, Cluster{ID: id, Pat: pat})
			ix.keys = append(ix.keys, key...)
		}
	}
	ix.allStar, _ = ix.table.Find(ix.codec.AllStar())
	return ix
}

// spaceCodec derives the packed-key layout from s's dictionary
// cardinalities.
func spaceCodec(s *Space) *pattern.Codec {
	cards := make([]int, s.M())
	for j := range cards {
		cards[j] = s.Dicts[j].Len()
	}
	return pattern.NewCodec(cards)
}

func buildIndex(s *Space, L int, optimized bool, opts []BuildOption) (*Index, BuildStats, error) {
	cfg := defaultBuildConfig()
	for _, o := range opts {
		o(&cfg)
	}
	var stats BuildStats
	if L < 1 || L > s.N() {
		return nil, stats, fmt.Errorf("lattice: L = %d out of range [1, %d]", L, s.N())
	}
	if s.M() > pattern.MaxAttrs {
		return nil, stats, fmt.Errorf("lattice: %d grouping attributes exceed the supported maximum of %d (pattern.MaxAttrs)", s.M(), pattern.MaxAttrs)
	}
	t0 := time.Now()
	ix := generate(s, L)
	stats.KeyWords = ix.codec.Words()
	stats.Generated = len(ix.Clusters)
	stats.GenerateMs = msSince(t0)

	// Phase 2: map tuples to clusters, writing all coverage lists into one
	// shared arena. The optimized path probes tuple-major (each tuple's
	// generalizations against the generated set) over contiguous tuple
	// shards in parallel, then counting-sorts the hits into the arena; the
	// naive path scans cluster-major and appends in place.
	nc := len(ix.Clusters)
	if optimized {
		workers := cfg.parallelism
		if workers < 1 {
			workers = 1
		}
		if workers > s.N() {
			workers = s.N()
		}
		stats.Workers = workers
		t1 := time.Now()
		shards := make([]mapShard, workers)
		var wg sync.WaitGroup
		for w := range shards {
			shards[w].lo = s.N() * w / workers
			shards[w].hi = s.N() * (w + 1) / workers
			shards[w].counts = make([]int32, nc)
			wg.Add(1)
			go func(sh *mapShard) {
				defer wg.Done()
				ix.probeShard(sh)
			}(&shards[w])
		}
		wg.Wait()
		stats.MapMs = msSince(t1)

		// Deterministic assembly: lay the arena out cluster-major, and within
		// each cluster shard-major (= ascending tuple order, since shards are
		// contiguous tuple ranges and each shard emits hits tuple-major).
		// This reproduces the sequential tuple-major scan bit for bit at any
		// worker count; per-cluster value sums are then accumulated in arena
		// order, the same addition order a sequential build performs.
		t2 := time.Now()
		total := 0
		for w := range shards {
			stats.MappingOps += shards[w].ops
			total += len(shards[w].hits)
		}
		starts := make([]int32, nc+1)
		off := int32(0)
		for id := 0; id < nc; id++ {
			starts[id] = off
			for w := range shards {
				c := shards[w].counts[id]
				shards[w].counts[id] = off // becomes the shard's write cursor
				off += c
			}
		}
		starts[nc] = off
		arena := make([]int32, total)
		for w := range shards {
			wg.Add(1)
			go func(sh *mapShard) {
				defer wg.Done()
				for _, h := range sh.hits {
					arena[sh.counts[h.cluster]] = h.tuple
					sh.counts[h.cluster]++
				}
			}(&shards[w])
		}
		wg.Wait()
		ix.covArena = arena
		for id := 0; id < nc; id++ {
			cov := arena[starts[id]:starts[id+1]:starts[id+1]]
			sum := 0.0
			for _, t := range cov {
				sum += s.Vals[t]
			}
			ix.Clusters[id].Cov = cov
			ix.Clusters[id].Sum = sum
		}
		stats.AssembleMs = msSince(t2)
	} else {
		stats.Workers = 1
		t1 := time.Now()
		var arena []int32
		starts := make([]int32, nc)
		counts := make([]int32, nc)
		for ci := range ix.Clusters {
			c := &ix.Clusters[ci]
			starts[ci] = int32(len(arena))
			for ti, t := range s.Tuples {
				stats.MappingOps++
				if c.Pat.CoversTuple(t) {
					arena = append(arena, int32(ti))
					c.Sum += s.Vals[ti]
				}
			}
			counts[ci] = int32(len(arena)) - starts[ci]
		}
		// Slice only after the arena stops growing: append may reallocate.
		ix.covArena = arena
		for ci := range ix.Clusters {
			start, end := starts[ci], starts[ci]+counts[ci]
			ix.Clusters[ci].Cov = arena[start:end:end]
		}
		stats.MapMs = msSince(t1)
	}
	assertIndexInvariants(ix, "build")
	return ix, stats, nil
}

// probeShard runs the phase-2 probe for one tuple shard: every tuple's 2^m
// generalizations against the generated cluster set. The key table is
// immutable by now, so shards only share read-only state.
func (ix *Index) probeShard(sh *mapShard) {
	s := ix.Space
	// Hit volume scales with total coverage (every tuple hits at least the
	// all-star cluster, top-L tuples hit all 2^m ancestors), so seed the
	// buffer at coverage scale, not cluster-count scale.
	sh.hits = make([]covHit, 0, 8*(sh.hi-sh.lo))
	w := ix.codec.Words()
	base := make([]uint64, w)
	keys := make([]uint64, 0, (1<<s.M())*w)
	ids := make([]int32, 1<<s.M())
	for ti := sh.lo; ti < sh.hi; ti++ {
		ti32 := int32(ti)
		ix.codec.Pack(s.Tuples[ti], base)
		keys = ix.codec.AppendAncestors(base, keys[:0])
		ix.table.FindAll(keys, ids)
		sh.ops += len(ids)
		for _, id := range ids {
			if id >= 0 {
				sh.hits = append(sh.hits, covHit{cluster: id, tuple: ti32})
				sh.counts[id]++
			}
		}
	}
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1000
}

// NumClusters returns the size of the generated cluster space.
func (ix *Index) NumClusters() int { return len(ix.Clusters) }

// Cluster returns the cluster with the given id.
func (ix *Index) Cluster(id int32) *Cluster { return &ix.Clusters[id] }

// key returns the packed key of cluster id.
func (ix *Index) key(id int32) []uint64 {
	w := ix.codec.Words()
	return ix.keys[int(id)*w : (int(id)+1)*w]
}

// Distance returns the cluster distance (Definition 3.1) between the
// clusters with ids a and b, word-parallel on the packed keys.
func (ix *Index) Distance(a, b int32) int {
	return ix.codec.Distance(ix.key(a), ix.key(b))
}

// Covers reports whether the pattern of cluster a covers the pattern of
// cluster b, word-parallel on the packed keys.
func (ix *Index) Covers(a, b int32) bool {
	return ix.codec.Covers(ix.key(a), ix.key(b))
}

// maxKeyWords bounds the words of a cluster key: at most MaxAttrs fields of
// at most 32 bits (dictionary ids are int32), two to a word. Scratch keys of
// this size live on the stack.
const maxKeyWords = pattern.MaxAttrs / 2

// Lookup finds the cluster for a pattern, if it was generated. Patterns that
// cannot be encoded at all (wrong arity, values outside every active domain)
// are simply not found.
func (ix *Index) Lookup(p pattern.Pattern) (*Cluster, bool) {
	var buf [maxKeyWords]uint64
	key := buf[:ix.codec.Words()]
	if !ix.codec.PackChecked(p, key) {
		return nil, false
	}
	id, ok := ix.table.Find(key)
	if !ok {
		return nil, false
	}
	return &ix.Clusters[id], true
}

// Singleton returns the singleton cluster of the rank-th top tuple
// (0-based). It panics if rank >= L.
func (ix *Index) Singleton(rank int) *Cluster {
	return &ix.Clusters[ix.singleton[rank]]
}

// AllStar returns the trivial cluster (*, ..., *) covering every tuple; it is
// the paper's Lower Bound baseline solution.
func (ix *Index) AllStar() *Cluster { return &ix.Clusters[ix.allStar] }

// CoverageArenaLen returns the total number of coverage entries stored across
// all clusters (the shared arena's length), an initialization-space figure.
func (ix *Index) CoverageArenaLen() int { return len(ix.covArena) }

// LCACluster returns the cluster for LCA(a.Pat, b.Pat). The generated space
// is closed under LCA (the LCA of two ancestors of top-L tuples is itself an
// ancestor of a top-L tuple), so the lookup always succeeds for clusters
// from this index; an error indicates a cluster from a different index.
func (ix *Index) LCACluster(a, b *Cluster) (*Cluster, error) {
	l := pattern.LCA(a.Pat, b.Pat)
	c, ok := ix.Lookup(l)
	if !ok {
		return nil, fmt.Errorf("lattice: LCA %v of clusters %d and %d not in index (foreign cluster?)", l, a.ID, b.ID)
	}
	return c, nil
}

// LCAMemo caches LCA cluster ids for pairs of cluster ids from one Index.
// The greedy merge loops probe the same pairs repeatedly (a surviving pair is
// re-evaluated every round until it merges or dies), so memoizing by id pair
// removes the repeated LCA computations and table lookups of LCACluster. A
// memo is index-level state — entries never go stale because the cluster
// space is immutable — but it is NOT safe for concurrent use; give each
// worker or replay state its own memo.
type LCAMemo struct {
	ix      *Index
	memo    *pattern.Table // (a, b) id pair -> LCA cluster id
	scratch pattern.Pattern
	hits    int
	misses  int
}

// memoHint sizes a fresh LCA memo.
const memoHint = 256

// NewLCAMemo returns an empty memo bound to the index.
func (ix *Index) NewLCAMemo() *LCAMemo {
	return &LCAMemo{
		ix:      ix,
		memo:    pattern.NewTable(1, memoHint),
		scratch: make(pattern.Pattern, ix.Space.M()),
	}
}

// LCAID returns the id of the LCA cluster of the clusters with ids a and b,
// which must be valid ids of this index (out-of-range ids panic, like any
// Index.Cluster access). Like LCACluster, the returned error signals a
// closure violation — the LCA pattern was never generated — which cannot
// happen for clusters of one index.
func (m *LCAMemo) LCAID(a, b int32) (int32, error) {
	if a > b {
		a, b = b, a
	}
	pair := [1]uint64{uint64(uint32(a))<<32 | uint64(uint32(b))}
	if id, ok := m.memo.Find(pair[:]); ok {
		m.hits++
		return id, nil
	}
	m.misses++
	ix := m.ix
	var buf [maxKeyWords]uint64
	key := buf[:ix.codec.Words()]
	ix.codec.LCA(key, ix.key(a), ix.key(b))
	id, ok := ix.table.Find(key)
	if !ok {
		ix.codec.Unpack(key, m.scratch)
		return 0, fmt.Errorf("lattice: LCA %v of clusters %d and %d not in index", m.scratch, a, b)
	}
	m.memo.Insert(pair[:], id)
	return id, nil
}

// Rebind attaches the memo to a successor index of the same space shape
// (equal attribute count). keep retains the memoized pairs, which is sound
// exactly when the successor preserved every cluster id — the fast path of
// incremental maintenance (Index.ApplyDelta): entries are id-pair → id facts
// about cluster patterns, and id stability carries them over unchanged. With
// keep false the memo is emptied (its storage is kept).
func (m *LCAMemo) Rebind(ix *Index, keep bool) {
	m.ix = ix
	if !keep {
		m.memo.Reset(1, memoHint)
		m.hits, m.misses = 0, 0
	}
	if len(m.scratch) != ix.Space.M() {
		m.scratch = make(pattern.Pattern, ix.Space.M())
	}
}

// Hits returns the number of memo lookups answered from the cache.
func (m *LCAMemo) Hits() int { return m.hits }

// Misses returns the number of memo lookups that computed a fresh LCA.
func (m *LCAMemo) Misses() int { return m.misses }

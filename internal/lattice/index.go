package lattice

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"qagview/internal/pattern"
)

// Cluster is a pattern together with the answer tuples it covers and their
// value sum. Clusters are owned by an Index and identified by their id; an
// index builds a cluster's record the first time it hands the cluster out.
type Cluster struct {
	// ID is the cluster's id in its index, in [0, NumClusters).
	ID int32
	// BitsOff is the word offset of Bits[0] in an N-tuple bitmap.
	BitsOff int32
	// Cov lists covered tuple indices into Space.Tuples, ascending. It is a
	// view into a coverage chunk the index owns: clusters do not own their
	// coverage storage individually.
	Cov []int32
	// Bits is the same coverage as a bitmap over the ranked tuples, trimmed
	// to the words from the first non-zero one to the last: bit i of Bits[w]
	// is set when tuple 64·(BitsOff+w)+i is covered. Like Cov it is a view
	// into a chunk the index owns.
	Bits []uint64
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

// Index is the cluster space for one (S, L) pair: every pattern that
// generalizes at least one top-L tuple, with the tuples it covers. All
// clusters any feasible solution can use come from this set, because a
// useful cluster must cover a top-L tuple or improve the average, and the
// paper's algorithms (like its prototype) draw candidates from exactly this
// generated space.
//
// Building an index generates the cluster set (ids, packed keys, the key
// table) and one posting bitmap per (attribute, value) over the ranked
// tuples. A cluster's record — pattern, coverage and value sum — is filled
// the first time the index hands the cluster out (Cluster, Singleton,
// AllStar, Lookup, LCACluster): its coverage is the AND of the bitmaps of
// its non-star attributes, kept both as that bitmap (trimmed to its
// non-zero words) and as a tuple list. The algorithms reach only a few
// percent of the generated clusters, so most are never filled. Distance,
// Covers and LCAID read the packed keys and fill nothing.
//
// An Index may be shared freely across goroutines: the generated space is
// immutable, a filled record never changes, and handing out a filled
// cluster is one atomic load. Fills serialize on an index mutex.
type Index struct {
	// Space is the underlying answer space.
	Space *Space
	// L is the coverage parameter the index was built for.
	L int

	*generation

	// post holds the posting bitmaps, words words each: bit t of bitmap
	// postOff[j]+v is set when ranked tuple t has dictionary id v in
	// attribute j. Indexes whose every cluster was filled at build (the
	// naive build) keep none.
	post    []uint64
	postOff []int
	words   int

	// cells[id] points at cluster id's record once it is filled.
	cells []atomic.Pointer[Cluster]
	// filled, covLen and bitsLen count filled records, their coverage
	// entries and their bitmap words.
	filled, covLen, bitsLen atomic.Int64

	// mu serializes fills; the chunks records, patterns, coverage lists and
	// bitmaps are carved from, and the AND scratch, are guarded by it.
	mu      sync.Mutex
	recs    []Cluster
	pats    pattern.Pattern
	covs    []int32
	bits    []uint64
	scratch []uint64
}

// generation is the cluster set generated from the top-L tuples: the codec
// packing patterns into keys of codec.Words() words, every cluster's key
// flat in id order, the table mapping each key back to its id, and the
// singleton and all-star ids. It depends on the top-L tuples and the key
// layout only, so successors that keep both share it.
type generation struct {
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
	// MappingOps counts the coverage work done at build: the N·m posting
	// bits set on the on-demand path, and the |C|·N tuple→cluster probes of
	// the naive path.
	MappingOps int
	// KeyWords is the number of 64-bit words in each packed cluster key.
	KeyWords int
	// GenerateMs is the wall-clock time of phase 1, the cluster generation
	// from the top-L tuples.
	GenerateMs float64
	// MapMs is the wall-clock time of the coverage phase: building the
	// posting bitmaps on the on-demand path, the cluster-major scan filling
	// every cluster on the naive path.
	MapMs float64
	// AssembleMs is the wall-clock time of assembling the index around its
	// generation: the per-cluster record slots fills publish into. No build
	// assembles coverage any more; the on-demand path fills each cluster
	// when it is first handed out.
	AssembleMs float64
}

// BuildIndex builds the cluster space for the top-L tuples of s using the
// optimized strategy of Section 6.3: clusters are generated only from top-L
// tuples (so every cluster covers at least one top-L tuple), and instead of
// scanning all tuples per cluster, each cluster's coverage is the AND of
// per-(attribute, value) posting bitmaps, computed when the cluster is first
// handed out.
func BuildIndex(s *Space, L int) (*Index, error) {
	ix, _, err := buildIndex(s, L, true)
	return ix, err
}

// BuildIndexNaive builds the same index without the mapping optimization:
// after cluster generation, each cluster scans every tuple for coverage, and
// every cluster is filled at build. It reproduces the Figure 8a ablation
// and serves as the equivalence oracle; its clusters are identical to
// BuildIndex's.
func BuildIndexNaive(s *Space, L int) (*Index, error) {
	ix, _, err := buildIndex(s, L, false)
	return ix, err
}

// BuildIndexStats is BuildIndex (optimized) or BuildIndexNaive returning
// work counters.
func BuildIndexStats(s *Space, L int, optimized bool) (*Index, BuildStats, error) {
	return buildIndex(s, L, optimized)
}

// generate builds the generation for (s, L): every cluster pattern
// generalizing a top-L tuple, with ids assigned in first-seen enumeration
// order (rank-major, subset-mask-minor, see pattern.Codec.AppendAncestors),
// plus the key table and the singleton/all-star ids. Patterns are kept as
// packed keys and unpacked when a cluster is filled. Keeping generation in
// one function is what guarantees a successor index (Rebase) assigns the
// same cluster ids as a from-scratch rebuild.
func generate(s *Space, L int, codec *pattern.Codec) *generation {
	m := s.M()
	g := &generation{codec: codec, singleton: make([]int32, L)}
	w := codec.Words()
	// Cluster count is unknown until the dedup runs; the hint trades one
	// possible regrow against over-allocation on star-sparse spaces. The cap
	// keeps wide schemas (the worst case L*2^m is astronomical at
	// m = MaxAttrs) from reserving memory the dedup will never fill — the
	// table and slices regrow fine past it.
	hint := min(L*(1<<m)/4, 1<<20)
	g.table = pattern.NewTable(w, hint)
	g.keys = make([]uint64, 0, hint*w)
	base := make([]uint64, w)
	keys := make([]uint64, 0, (1<<m)*w)
	ids := make([]int32, 1<<m)
	for rank := 0; rank < L; rank++ {
		codec.Pack(s.Tuples[rank], base)
		keys = codec.AppendAncestors(base, keys[:0])
		// New patterns get the next dense id, which is the next cluster id.
		g.table.InsertAll(keys, ids)
		// The concrete pattern comes first in its own enumeration.
		g.singleton[rank] = ids[0]
		for i, id := range ids {
			if int(id) == len(g.keys)/w {
				g.keys = append(g.keys, keys[i*w:(i+1)*w]...)
			}
		}
	}
	g.allStar, _ = g.table.Find(codec.AllStar())
	return g
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

// newIndex returns an index over s with generation g and no cluster filled.
func newIndex(s *Space, L int, g *generation) *Index {
	return &Index{
		Space:      s,
		L:          L,
		generation: g,
		cells:      make([]atomic.Pointer[Cluster], len(g.keys)/g.codec.Words()),
	}
}

// buildPostings sets one bit per (tuple, attribute): N·m bit sets over
// Σ_j |dict_j|·⌈N/64⌉ words. It returns the bits set.
func (ix *Index) buildPostings() int {
	s := ix.Space
	ix.words = (s.N() + 63) / 64
	ix.postOff = make([]int, s.M()+1)
	for j, d := range s.Dicts {
		ix.postOff[j+1] = ix.postOff[j] + d.Len()
	}
	ix.post = make([]uint64, ix.postOff[s.M()]*ix.words)
	for t, tup := range s.Tuples {
		w, bit := t>>6, uint64(1)<<(t&63)
		for j, v := range tup {
			ix.post[(ix.postOff[j]+int(v))*ix.words+w] |= bit
		}
	}
	ix.scratch = make([]uint64, ix.words)
	return s.N() * s.M()
}

func buildIndex(s *Space, L int, optimized bool) (*Index, BuildStats, error) {
	var stats BuildStats
	if L < 1 || L > s.N() {
		return nil, stats, fmt.Errorf("lattice: L = %d out of range [1, %d]", L, s.N())
	}
	if s.M() > pattern.MaxAttrs {
		return nil, stats, fmt.Errorf("lattice: %d grouping attributes exceed the supported maximum of %d (pattern.MaxAttrs)", s.M(), pattern.MaxAttrs)
	}
	t0 := time.Now()
	g := generate(s, L, spaceCodec(s))
	stats.GenerateMs = msSince(t0)
	t1 := time.Now()
	ix := newIndex(s, L, g)
	stats.AssembleMs = msSince(t1)
	stats.KeyWords = ix.codec.Words()
	stats.Generated = ix.NumClusters()

	t2 := time.Now()
	if optimized {
		stats.MappingOps = ix.buildPostings()
	} else {
		// Cluster-major scan: every cluster tests every tuple, and is filled
		// through the same bookkeeping as an on-demand fill.
		var cov []int32
		for id := range ix.cells {
			c := ix.record(int32(id))
			cov = cov[:0]
			for ti, t := range s.Tuples {
				if c.Pat.CoversTuple(t) {
					cov = append(cov, int32(ti))
				}
			}
			stats.MappingOps += s.N()
			c.Cov = carve(&ix.covs, len(cov), coverChunk)
			copy(c.Cov, cov)
			for _, t := range c.Cov {
				c.Sum += s.Vals[t]
			}
			if len(cov) > 0 {
				c.BitsOff = cov[0] >> 6
				c.Bits = carve(&ix.bits, int(cov[len(cov)-1]>>6-c.BitsOff)+1, bitsChunk)
				for _, t := range cov {
					c.Bits[t>>6-c.BitsOff] |= 1 << (t & 63)
				}
			}
			ix.publish(c)
		}
	}
	stats.MapMs = msSince(t2)
	assertIndexInvariants(ix, "build")
	return ix, stats, nil
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// recordChunk and patternChunk are how many cluster records and patterns
// share one allocation; coverChunk and bitsChunk are the sizes of a coverage
// and a bitmap chunk (a list or bitmap longer than that gets one of its own
// size).
const (
	recordChunk  = 256
	patternChunk = 256
	coverChunk   = 8192
	bitsChunk    = 2048
)

// record carves a record for cluster id with its pattern unpacked from the
// key; coverage is left to the caller. The caller holds ix.mu (or owns ix
// exclusively, as a build does).
func (ix *Index) record(id int32) *Cluster {
	c := &carve(&ix.recs, 1, recordChunk)[0]
	m := ix.Space.M()
	c.ID = id
	c.Pat = carve(&ix.pats, m, patternChunk*m)
	ix.codec.Unpack(ix.key(id), c.Pat)
	return c
}

// carve returns n zeroed entries from the current chunk *free, starting a
// new chunk of max(n, size) entries when the current one is too short.
func carve[S ~[]E, E any](free *S, n, size int) S {
	if n > len(*free) {
		*free = make(S, max(n, size))
	}
	s := (*free)[:n:n]
	*free = (*free)[n:]
	return s
}

// publish makes a completed record visible to every reader.
func (ix *Index) publish(c *Cluster) *Cluster {
	assertFill(ix, c)
	ix.filled.Add(1)
	ix.covLen.Add(int64(len(c.Cov)))
	ix.bitsLen.Add(int64(len(c.Bits)))
	ix.cells[c.ID].Store(c)
	return c
}

// fill builds cluster id's record from the posting bitmaps: its coverage is
// the AND of the bitmaps of its non-star attributes (every tuple for the
// all-star cluster), kept as a bitmap trimmed to its non-zero words and
// listed in ascending tuple order, and its sum adds the values in that
// order — the order every build has always accumulated in, so sums are
// bit-identical to the naive build's.
func (ix *Index) fill(id int32) *Cluster {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if c := ix.cells[id].Load(); c != nil {
		return c // filled while this caller waited
	}
	c := ix.record(id)
	acc := ix.scratch
	first := true
	for j, v := range c.Pat {
		if v == pattern.Star {
			continue
		}
		bm := ix.post[(ix.postOff[j]+int(v))*ix.words:][:ix.words]
		if first {
			copy(acc, bm)
			first = false
			continue
		}
		for i := range acc {
			acc[i] &= bm[i]
		}
	}
	if first {
		for i := range acc {
			acc[i] = ^uint64(0)
		}
		if r := ix.Space.N() % 64; r != 0 {
			acc[len(acc)-1] = 1<<r - 1
		}
	}
	lo, hi, n := 0, 0, 0
	for w, x := range acc {
		if x != 0 {
			if n == 0 {
				lo = w
			}
			hi = w + 1
			n += bits.OnesCount64(x)
		}
	}
	c.BitsOff = int32(lo)
	c.Bits = carve(&ix.bits, hi-lo, bitsChunk)
	copy(c.Bits, acc[lo:hi])
	c.Cov = carve(&ix.covs, n, coverChunk)
	vals := ix.Space.Vals
	k := 0
	for w, x := range c.Bits {
		for ; x != 0; x &= x - 1 {
			t := int32((lo+w)<<6 | bits.TrailingZeros64(x))
			c.Cov[k] = t
			c.Sum += vals[t]
			k++
		}
	}
	return ix.publish(c)
}

// NumClusters returns the size of the generated cluster space.
func (ix *Index) NumClusters() int { return len(ix.cells) }

// Cluster returns the cluster with the given id, filling it on first use.
func (ix *Index) Cluster(id int32) *Cluster {
	if c := ix.cells[id].Load(); c != nil {
		return c
	}
	return ix.fill(id)
}

// FilledClusters returns the number of clusters filled so far.
func (ix *Index) FilledClusters() int { return int(ix.filled.Load()) }

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
	return ix.Cluster(id), true
}

// Singleton returns the singleton cluster of the rank-th top tuple
// (0-based). It panics if rank >= L.
func (ix *Index) Singleton(rank int) *Cluster {
	return ix.Cluster(ix.singleton[rank])
}

// AllStar returns the trivial cluster (*, ..., *) covering every tuple; it is
// the paper's Lower Bound baseline solution.
func (ix *Index) AllStar() *Cluster { return ix.Cluster(ix.allStar) }

// CoverageArenaLen returns the number of coverage entries filled so far
// across all clusters, an initialization-space figure. It is safe to call
// concurrently with fills.
func (ix *Index) CoverageArenaLen() int { return int(ix.covLen.Load()) }

// Bytes estimates the index's resident memory: per-cluster keys, table
// slots and record pointers, the posting bitmaps, and the filled records
// with their patterns, coverage lists and coverage bitmaps. It is safe to
// call concurrently with fills.
func (ix *Index) Bytes() int64 {
	const recordBytes = 88 // Cluster record, in its chunk
	n := int64(len(ix.keys))*8 + ix.table.Bytes() + int64(len(ix.cells))*8
	n += int64(len(ix.post)+len(ix.scratch)) * 8
	n += ix.filled.Load() * int64(recordBytes+4*ix.Space.M())
	n += ix.covLen.Load()*4 + ix.bitsLen.Load()*8
	return n
}

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

// LCAID returns the id of the LCA cluster of the clusters with ids a and b,
// which must be valid ids of this index (out-of-range ids panic, like any
// Index.Cluster access), from their packed keys and the key table: it fills
// nothing and caches nothing. Like LCACluster, the returned error signals a
// closure violation — the LCA pattern was never generated — which cannot
// happen for clusters of one index.
func (ix *Index) LCAID(a, b int32) (int32, error) {
	var buf [maxKeyWords]uint64
	key := buf[:ix.codec.Words()]
	ix.codec.LCA(key, ix.key(a), ix.key(b))
	if id, ok := ix.table.Find(key); ok {
		return id, nil
	}
	p := make(pattern.Pattern, ix.Space.M())
	ix.codec.Unpack(key, p)
	return 0, fmt.Errorf("lattice: LCA %v of clusters %d and %d not in index", p, a, b)
}

// LCAMemo caches LCA cluster ids for pairs of cluster ids from one Index.
// It pays only where pairs repeat: the per-D replays of one precompute
// start from the same cluster pool, so they probe the same pairs again,
// while a single greedy run computes each pair's LCA once. A memo is
// index-level state — entries never go stale because the cluster space is
// immutable — but it is NOT safe for concurrent use; give each replay
// state its own memo.
type LCAMemo struct {
	ix     *Index
	memo   *pattern.Table // (a, b) id pair -> LCA cluster id
	hits   int
	misses int
}

// memoHint sizes a fresh LCA memo.
const memoHint = 256

// NewLCAMemo returns an empty memo bound to the index.
func (ix *Index) NewLCAMemo() *LCAMemo {
	return &LCAMemo{ix: ix, memo: pattern.NewTable(1, memoHint)}
}

// LCAID is Index.LCAID through the memo.
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
	id, err := m.ix.LCAID(a, b)
	if err != nil {
		return 0, err
	}
	m.memo.Insert(pair[:], id)
	return id, nil
}

// Rebind attaches the memo to a successor index of the same space shape
// (equal attribute count). keep retains the memoized pairs, which is sound
// exactly when the successor preserved every cluster id (DeltaStats.FastPath
// of Index.ApplyDelta and Rebase): entries are id-pair → id facts about
// cluster patterns, and id stability carries them over unchanged. With keep
// false the memo is emptied (its storage is kept).
func (m *LCAMemo) Rebind(ix *Index, keep bool) {
	m.ix = ix
	if !keep {
		m.memo.Reset(1, memoHint)
		m.hits, m.misses = 0, 0
	}
}

// Hits returns the number of memo lookups answered from the cache.
func (m *LCAMemo) Hits() int { return m.hits }

// Misses returns the number of memo lookups that computed a fresh LCA.
func (m *LCAMemo) Misses() int { return m.misses }

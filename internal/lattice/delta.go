package lattice

import (
	"fmt"
	"math"
	"sort"

	"qagview/internal/pattern"
	"qagview/internal/relation"
)

// This file implements incremental maintenance of the cluster space: applying
// batched answer-tuple appends and deletes to a built Index without the full
// N·2^m coverage-mapping pass of BuildIndex. The maintained index is
// copy-on-write — the receiver is never mutated, so readers holding the old
// index (concurrent summarize runs, in-flight precompute sweeps) stay safe —
// and it is bit-identical to a from-scratch rebuild over the updated answer
// set: same cluster ids, coverage lists, and floating-point sums, so every
// summarization algorithm produces byte-for-byte the same output either way
// (see delta_test.go).
//
// Two regimes, chosen automatically:
//
//   - Fast path: the top-L prefix of the ranked answer set is unchanged
//     (appends rank at or below L, deletes hit only ranks >= L). The
//     generated cluster set — a function of the top-L tuples alone — is then
//     exactly the old one, with the same ids, so only coverage lists and
//     sums are maintained: appended tuples are probed against the existing
//     key table (2^m probes each) and deleted tuples are spliced out.
//
//   - Slow path: the top-L prefix changed. Cluster generation is re-run
//     (L·2^m dedup probes — the cheap phase 1 of BuildIndex), old clusters
//     are matched by pattern and keep their coverage incrementally, and only
//     genuinely new clusters compute coverage, by filtering the coverage of
//     their cheapest lattice parent. The expensive full phase 2 (probing all
//     N tuples) never runs.

// Delta is a batch of answer-space edits: rendered rows to append, each
// ranked by its value like any other answer tuple, and current ranks to
// delete. Appends and deletes may be mixed in one batch; a changed value is
// expressed as a delete plus an append.
type Delta struct {
	// AppendRows holds the new answer tuples as rendered attribute values
	// (one slice per tuple, in Space.Attrs order).
	AppendRows [][]string
	// AppendVals holds the values aligned with AppendRows.
	AppendVals []float64
	// DeleteRanks lists 0-based indices into the current Space.Tuples to
	// remove. Ranks must be unique and in range.
	DeleteRanks []int
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return len(d.AppendRows) == 0 && len(d.DeleteRanks) == 0
}

// DeltaStats reports what an incremental maintenance pass did.
type DeltaStats struct {
	// FastPath reports that the top-L prefix of the answer ranking was
	// unchanged, so the cluster set and every cluster id were preserved
	// as-is (the regime warm-started summaries rely on to keep LCA memos).
	FastPath bool
	// Appended and Deleted count answer tuples added and removed.
	Appended, Deleted int
	// NewClusters and DroppedClusters count cluster-set churn: patterns
	// newly materialized by tuples entering the top L, and patterns no
	// longer generated by any top-L tuple. Both are zero on the fast path.
	NewClusters, DroppedClusters int
	// TouchedClusters counts clusters whose coverage list or value sum was
	// recomputed.
	TouchedClusters int
	// Repacked reports that the packed keys were re-derived (a new
	// dictionary id overflowed its bit field, or the top-L churn re-ran
	// generation) instead of shared with the previous index.
	Repacked bool
}

// ApplyDelta applies a batch of appends and deletes, returning a new Index
// over the updated answer set. The receiver and its Space are not modified.
//
// The updated ranking is exactly what a from-scratch build would produce:
// surviving tuples keep their relative order, and appended tuples are placed
// by descending value with ties going after existing tuples and earlier
// appends (the stable-sort order of NewSpace over the old rows followed by
// the appended rows). The returned index is bit-identical to that rebuild.
func (ix *Index) ApplyDelta(d Delta) (*Index, DeltaStats, error) {
	var stats DeltaStats
	s := ix.Space
	m := s.M()
	if len(d.AppendRows) != len(d.AppendVals) {
		return nil, stats, fmt.Errorf("lattice: %d append rows but %d values", len(d.AppendRows), len(d.AppendVals))
	}
	for i, row := range d.AppendRows {
		if len(row) != m {
			return nil, stats, fmt.Errorf("lattice: append row %d has %d attributes, want %d", i, len(row), m)
		}
	}
	del := make([]bool, s.N())
	for _, r := range d.DeleteRanks {
		if r < 0 || r >= s.N() {
			return nil, stats, fmt.Errorf("lattice: delete rank %d out of range [0, %d)", r, s.N())
		}
		if del[r] {
			return nil, stats, fmt.Errorf("lattice: duplicate delete rank %d", r)
		}
		del[r] = true
	}

	dicts, appended := encodeRowsCOW(s, d.AppendRows)

	// Order the appends by descending value, stable, so the merge below
	// reproduces NewSpace's stable sort over old-rows-then-appends.
	ord := make([]int, len(appended))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return d.AppendVals[ord[a]] > d.AppendVals[ord[b]] })

	newN := s.N() - len(d.DeleteRanks) + len(appended)
	tuples := make([]pattern.Pattern, 0, newN)
	vals := make([]float64, 0, newN)
	origin := make([]int32, 0, newN)
	oi, ai := 0, 0
	for oi < s.N() && del[oi] {
		oi++
	}
	for oi < s.N() || ai < len(ord) {
		// Ties take the old tuple first: stable sort keeps input order, and
		// appends come after the existing rows in the rebuild's input.
		if oi < s.N() && (ai == len(ord) || s.Vals[oi] >= d.AppendVals[ord[ai]]) {
			tuples = append(tuples, s.Tuples[oi])
			vals = append(vals, s.Vals[oi])
			origin = append(origin, int32(oi))
			oi++
			for oi < s.N() && del[oi] {
				oi++
			}
		} else {
			a := ord[ai]
			tuples = append(tuples, appended[a])
			vals = append(vals, d.AppendVals[a])
			origin = append(origin, -1)
			ai++
		}
	}
	nsp := &Space{Attrs: s.Attrs, Dicts: dicts, Tuples: tuples, Vals: vals}
	nix, err := ix.rebase(nsp, origin, &stats)
	assertIndexInvariants(nix, "ApplyDelta")
	return nix, stats, err
}

// Rebase rebuilds the index incrementally over a full replacement answer set:
// rows and vals give the new ranking in non-increasing value order (the order
// an aggregate query emits), and origin[i] names the current tuple that row i
// carries over unchanged, or -1 for an appended row. Every current tuple not
// named by origin is deleted. Kept rows must match their origin tuple exactly
// (rendered values and value bits); serving layers obtain origin by diffing
// the re-run query result against the current space.
//
// Like ApplyDelta, Rebase is copy-on-write and bit-identical to rebuilding
// from (rows, vals) with NewSpace + BuildIndex.
func (ix *Index) Rebase(rows [][]string, vals []float64, origin []int32) (*Index, DeltaStats, error) {
	var stats DeltaStats
	s := ix.Space
	m := s.M()
	if len(rows) != len(vals) || len(rows) != len(origin) {
		return nil, stats, fmt.Errorf("lattice: rebase with %d rows, %d values, %d origins", len(rows), len(vals), len(origin))
	}
	for i, row := range rows {
		if len(row) != m {
			return nil, stats, fmt.Errorf("lattice: rebase row %d has %d attributes, want %d", i, len(row), m)
		}
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1] {
			return nil, stats, fmt.Errorf("lattice: rebase rows not sorted by non-increasing value at row %d", i)
		}
	}
	dicts, tuples := encodeRowsCOW(s, rows)
	seen := make([]bool, s.N())
	for i, o := range origin {
		if o < 0 {
			continue
		}
		if int(o) >= s.N() {
			return nil, stats, fmt.Errorf("lattice: rebase origin %d out of range [0, %d)", o, s.N())
		}
		if seen[o] {
			return nil, stats, fmt.Errorf("lattice: rebase origin %d named twice", o)
		}
		seen[o] = true
		if math.Float64bits(vals[i]) != math.Float64bits(s.Vals[o]) || !pattern.Equal(tuples[i], s.Tuples[o]) {
			return nil, stats, fmt.Errorf("lattice: rebase row %d does not match its origin tuple %d", i, o)
		}
	}
	// Copy vals: the new Space owns its value array (a caller reusing its
	// result buffers must not be able to corrupt the installed index).
	nsp := &Space{Attrs: s.Attrs, Dicts: dicts, Tuples: tuples, Vals: append([]float64(nil), vals...)}
	nix, err := ix.rebase(nsp, origin, &stats)
	assertIndexInvariants(nix, "Rebase")
	return nix, stats, err
}

// encodeRowsCOW dictionary-encodes rows against s's dictionaries, cloning a
// dictionary the first time a row introduces a value outside its active
// domain: existing ids are preserved (so old encoded tuples remain valid in
// the new dictionaries), new values take the next free ids in row order, and
// unextended dictionaries are shared with the old space.
func encodeRowsCOW(s *Space, rows [][]string) ([]*relation.Dict, []pattern.Pattern) {
	dicts := append([]*relation.Dict(nil), s.Dicts...)
	cloned := make([]bool, len(dicts))
	out := make([]pattern.Pattern, len(rows))
	for i, row := range rows {
		t := make(pattern.Pattern, len(row))
		for j, v := range row {
			id, ok := dicts[j].Lookup(v)
			if !ok {
				if !cloned[j] {
					dicts[j] = dicts[j].Clone()
					cloned[j] = true
				}
				id = dicts[j].ID(v)
			}
			t[j] = id
		}
		out[i] = t
	}
	return dicts, out
}

// rebase is the shared core: nsp is the new space, origin maps each new
// tuple index to its old index (or -1 for appends).
func (ix *Index) rebase(nsp *Space, origin []int32, stats *DeltaStats) (*Index, error) {
	s := ix.Space
	if nsp.N() < ix.L {
		return nil, fmt.Errorf("lattice: delta shrinks the answer set to %d tuples, below L = %d", nsp.N(), ix.L)
	}
	remap := make([]int32, s.N())
	for i := range remap {
		remap[i] = -1
	}
	var appends []int32 // new indices of appended tuples, ascending
	kept := 0
	monotonic := true
	last := int32(-1)
	for i, o := range origin {
		if o < 0 {
			appends = append(appends, int32(i))
			continue
		}
		remap[o] = int32(i)
		kept++
		// Kept tuples out of their old relative order (possible only through
		// Rebase with a reordering origin) invalidate the "unchanged clusters
		// keep their sums" shortcut: rebuild would accumulate in the new
		// order. Detect it and recompute every sum.
		if o < last {
			monotonic = false
		}
		last = o
	}
	stats.Appended = len(appends)
	stats.Deleted = s.N() - kept
	var deletes []int32 // old indices, ascending
	for o := range remap {
		if remap[o] < 0 {
			deletes = append(deletes, int32(o))
		}
	}

	fast := true
	for i := 0; i < ix.L; i++ {
		if origin[i] != int32(i) {
			fast = false
			break
		}
	}
	stats.FastPath = fast
	if fast {
		return ix.rebaseFast(nsp, remap, appends, deletes, monotonic, stats)
	}
	return ix.rebaseSlow(nsp, remap, appends, deletes, monotonic, stats)
}

// hitBuckets probes each appended tuple's generalizations against ix's key
// table and buckets the hits cluster-major: cluster id's appended tuples are
// addBuf[addStart[id]:addStart[id+1]], ascending (appends are iterated in
// ascending new-tuple order). Both rebase paths feed their coverage merges
// from this one counting sort.
func hitBuckets(ix *Index, tuples []pattern.Pattern, appends []int32, nc int) (addStart, addBuf []int32) {
	counts := make([]int32, nc)
	type hit struct{ cluster, tuple int32 }
	var hits []hit
	var keyBuf []uint64
	var idBuf []int32
	for _, t := range appends {
		keyBuf, idBuf = ix.appendCoveringIDs(tuples[t], keyBuf, idBuf[:0])
		for _, id := range idBuf {
			hits = append(hits, hit{cluster: id, tuple: t})
			counts[id]++
		}
	}
	addStart = make([]int32, nc+1)
	off := int32(0)
	for id := 0; id < nc; id++ {
		addStart[id] = off
		off += counts[id]
		counts[id] = addStart[id] // becomes the bucket's write cursor
	}
	addStart[nc] = off
	addBuf = make([]int32, off)
	for _, h := range hits {
		addBuf[counts[h.cluster]] = h.tuple
		counts[h.cluster]++
	}
	return addStart, addBuf
}

// mergeRemapped appends oldCov — remapped to new tuple indices, deletions
// dropped — merged with the ascending adds onto arena, preserving ascending
// order (the accumulation order rebuild sums depend on). A non-monotonic
// remap (reordered kept tuples) gathers and sorts through *scratch instead.
func mergeRemapped(arena, oldCov, remap, adds []int32, monotonic bool, scratch *[]int32) []int32 {
	if monotonic {
		ai := 0
		for _, t := range oldCov {
			nt := remap[t]
			if nt < 0 {
				continue
			}
			for ai < len(adds) && adds[ai] < nt {
				arena = append(arena, adds[ai])
				ai++
			}
			arena = append(arena, nt)
		}
		return append(arena, adds[ai:]...)
	}
	s := (*scratch)[:0]
	for _, t := range oldCov {
		if nt := remap[t]; nt >= 0 {
			s = append(s, nt)
		}
	}
	s = append(s, adds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	*scratch = s
	return append(arena, s...)
}

// rebaseFast maintains coverage under an unchanged top-L prefix: the cluster
// set, ids, and key tables carry over (re-derived only on codec overflow),
// and only clusters gaining or losing tuples recompute their lists and sums.
func (ix *Index) rebaseFast(nsp *Space, remap, appends, deletes []int32, monotonic bool, stats *DeltaStats) (*Index, error) {
	nc := len(ix.Clusters)
	nix := &Index{
		Space:     nsp,
		L:         ix.L,
		Clusters:  append([]Cluster(nil), ix.Clusters...),
		singleton: ix.singleton, // same ranks, same ids
		allStar:   ix.allStar,
		codec:     ix.codec,
		table:     ix.table,
		keys:      ix.keys,
	}

	// Key layout: shared with the old index unless a newly interned
	// dictionary id overflowed its packed bit field, in which case the codec
	// is re-derived from the grown cardinalities (possibly with more words)
	// and every cluster is re-keyed under the same id.
	for j := 0; j < nsp.M(); j++ {
		if !ix.codec.CardFits(j, nsp.Dicts[j].Len()) {
			stats.Repacked = true
			break
		}
	}
	if stats.Repacked {
		nix.codec = spaceCodec(nsp)
		w := nix.codec.Words()
		nix.table = pattern.NewTable(w, nc)
		nix.keys = make([]uint64, nc*w)
		for id := range nix.Clusters {
			key := nix.keys[id*w : (id+1)*w]
			nix.codec.Pack(nix.Clusters[id].Pat, key)
			nix.table.Insert(key, int32(id))
		}
	}

	// Appended coverage: probe each appended tuple's generalizations against
	// the cluster table and bucket the hits per cluster.
	addStart, addBuf := hitBuckets(nix, nsp.Tuples, appends, nc)
	changed := make([]bool, nc)
	for id := 0; id < nc; id++ {
		changed[id] = addStart[id] != addStart[id+1]
	}

	// Deleted coverage: a tuple's covering clusters are exactly its generated
	// generalizations, so 2^m probes of the old table find every list it must
	// leave. delHits sizes the new arena exactly.
	delHits := 0
	var keyBuf []uint64
	var idBuf []int32
	for _, o := range deletes {
		keyBuf, idBuf = ix.appendCoveringIDs(ix.Space.Tuples[o], keyBuf, idBuf[:0])
		delHits += len(idBuf)
		for _, id := range idBuf {
			changed[id] = true
		}
	}

	arena := make([]int32, 0, len(ix.covArena)-delHits+len(addBuf))
	starts := make([]int32, nc+1)
	var scratch []int32
	for id := 0; id < nc; id++ {
		starts[id] = int32(len(arena))
		oldCov := ix.Clusters[id].Cov
		if !changed[id] && monotonic {
			// Same members, same order, same values: the remapped list keeps
			// the sum already copied into nix.Clusters[id] bit-identical.
			for _, t := range oldCov {
				arena = append(arena, remap[t])
			}
			continue
		}
		arena = mergeRemapped(arena, oldCov, remap, addBuf[addStart[id]:addStart[id+1]], monotonic, &scratch)
		// Recompute the sum in ascending tuple order — the order a rebuild's
		// assembly accumulates in — so the float result matches bit for bit.
		sum := 0.0
		for _, t := range arena[starts[id]:] {
			sum += nsp.Vals[t]
		}
		nix.Clusters[id].Sum = sum
		stats.TouchedClusters++
	}
	starts[nc] = int32(len(arena))
	nix.covArena = arena
	for id := 0; id < nc; id++ {
		lo, hi := starts[id], starts[id+1]
		nix.Clusters[id].Cov = arena[lo:hi:hi]
	}
	return nix, nil
}

// rebaseSlow handles top-L churn: cluster generation re-runs (phase 1 of
// BuildIndex, L·2^m dedup probes), surviving clusters are matched by pattern
// and keep their coverage incrementally, and newly materialized clusters
// compute theirs by filtering the coverage of their smallest lattice parent —
// never by scanning all N tuples.
func (ix *Index) rebaseSlow(nsp *Space, remap, appends, deletes []int32, monotonic bool, stats *DeltaStats) (*Index, error) {
	nix := generate(nsp, ix.L)
	stats.Repacked = true
	nc := len(nix.Clusters)

	// Match the regenerated clusters against the old set by pattern. When
	// the two codecs share a key layout (the usual case: no dictionary
	// outgrew its field), a new key is the old key of the same pattern and
	// is looked up as is; otherwise the pattern is re-packed under the old
	// codec. Either way a pattern carrying a brand-new dictionary value is
	// correctly absent: no old cluster holds that id.
	oldID := make([]int32, nc)
	matched := 0
	sameLayout := nix.codec.SameLayout(ix.codec)
	for id := range nix.Clusters {
		oldID[id] = -1
		if sameLayout {
			if oid, ok := ix.table.Find(nix.key(int32(id))); ok {
				oldID[id] = oid
				matched++
			}
		} else if c, ok := ix.Lookup(nix.Clusters[id].Pat); ok {
			oldID[id] = c.ID
			matched++
		}
	}
	stats.NewClusters = nc - matched
	stats.DroppedClusters = len(ix.Clusters) - matched

	// Appended-tuple hits against the new cluster table (fresh clusters
	// collect hits too, but inherit them through their parent filter below;
	// only matched clusters consume these lists).
	addStart, addBuf := hitBuckets(nix, nsp.Tuples, appends, nc)

	// Old clusters losing a deleted tuple must recompute; find them by
	// probing each deleted tuple's generalizations in the old table.
	oldChanged := make([]bool, len(ix.Clusters))
	var keyBuf []uint64
	var idBuf []int32
	for _, o := range deletes {
		keyBuf, idBuf = ix.appendCoveringIDs(ix.Space.Tuples[o], keyBuf, idBuf[:0])
		for _, id := range idBuf {
			oldChanged[id] = true
		}
	}

	// Coverage assembly. The arena grows as lists are emitted; clusters are
	// addressed by (start, len) and sliced only once the arena is final, so
	// regrowth never invalidates anything.
	arena := make([]int32, 0, len(ix.covArena)+len(addBuf))
	starts := make([]int32, nc)
	lens := make([]int32, nc)
	sums := make([]float64, nc)
	done := make([]bool, nc)
	var scratch []int32

	// Pass 1: matched clusters, in id order.
	for id := 0; id < nc; id++ {
		oid := oldID[id]
		if oid < 0 {
			continue
		}
		starts[id] = int32(len(arena))
		oldCov := ix.Clusters[oid].Cov
		adds := addBuf[addStart[id]:addStart[id+1]]
		if len(adds) == 0 && !oldChanged[oid] && monotonic {
			for _, t := range oldCov {
				arena = append(arena, remap[t])
			}
			sums[id] = ix.Clusters[oid].Sum
		} else {
			arena = mergeRemapped(arena, oldCov, remap, adds, monotonic, &scratch)
			sum := 0.0
			for _, t := range arena[starts[id]:] {
				sum += nsp.Vals[t]
			}
			sums[id] = sum
			stats.TouchedClusters++
		}
		lens[id] = int32(len(arena)) - starts[id]
		done[id] = true
	}

	// Pass 2: fresh clusters, most-specific parents first. The generated set
	// is upward closed (a generalization of an ancestor of a top-L tuple is
	// itself one), so every lattice parent — the pattern with one more Star —
	// is in the set, and processing by descending level guarantees each
	// parent's coverage is final before its children filter it.
	var fresh []int32
	for id := 0; id < nc; id++ {
		if oldID[id] < 0 {
			fresh = append(fresh, int32(id))
		}
	}
	sort.Slice(fresh, func(a, b int) bool {
		la, lb := nix.Clusters[fresh[a]].Pat.Level(), nix.Clusters[fresh[b]].Pat.Level()
		if la != lb {
			return la > lb
		}
		return fresh[a] < fresh[b]
	})
	for _, id := range fresh {
		c := &nix.Clusters[id]
		parent := int32(-1)
		for j, v := range c.Pat {
			if v == pattern.Star {
				continue
			}
			pid, ok := nix.parentID(id, j)
			if !ok || !done[pid] {
				continue
			}
			if parent < 0 || lens[pid] < lens[parent] {
				parent = pid
			}
		}
		if parent < 0 {
			// Cannot happen: the all-star cluster (level m) always matches the
			// old index, and every fresh cluster has at least one parent.
			return nil, fmt.Errorf("lattice: no finalized parent for fresh cluster %v", c.Pat)
		}
		pcov := arena[starts[parent] : starts[parent]+lens[parent]]
		starts[id] = int32(len(arena))
		sum := 0.0
		for _, t := range pcov {
			if c.Pat.CoversTuple(nsp.Tuples[t]) {
				arena = append(arena, t)
				sum += nsp.Vals[t]
			}
		}
		lens[id] = int32(len(arena)) - starts[id]
		sums[id] = sum
		done[id] = true
		stats.TouchedClusters++
	}

	nix.covArena = arena
	for id := 0; id < nc; id++ {
		lo, hi := starts[id], starts[id]+lens[id]
		nix.Clusters[id].Cov = arena[lo:hi:hi]
		nix.Clusters[id].Sum = sums[id]
	}
	return nix, nil
}

// parentID returns the id of the cluster whose pattern is c's pattern with
// attribute j starred (c's lattice parent through j).
func (ix *Index) parentID(id int32, j int) (int32, bool) {
	var buf [maxKeyWords]uint64
	key := buf[:copy(buf[:], ix.key(id))]
	ix.codec.Star(key, j)
	return ix.table.Find(key)
}

// appendCoveringIDs appends the ids of the clusters covering the concrete
// tuple t — exactly t's generated generalizations — to dst, reusing keyBuf
// for the packed enumeration. t must be encoded under ix's dictionaries (a
// tuple of ix's space, or an appended tuple of the space ix was derived
// for). The enumeration order is the shared subset-mask order; each cluster
// appears at most once.
func (ix *Index) appendCoveringIDs(t pattern.Pattern, keyBuf []uint64, dst []int32) ([]uint64, []int32) {
	var buf [maxKeyWords]uint64
	w := ix.codec.Words()
	base := buf[:w]
	ix.codec.Pack(t, base)
	keyBuf = ix.codec.AppendAncestors(base, keyBuf[:0])
	for i := 0; i < len(keyBuf); i += w {
		if id, ok := ix.table.Find(keyBuf[i : i+w]); ok {
			dst = append(dst, id)
		}
	}
	return keyBuf, dst
}

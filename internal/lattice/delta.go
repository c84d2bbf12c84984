package lattice

import (
	"fmt"
	"math"
	"sort"

	"qagview/internal/pattern"
	"qagview/internal/relation"
)

// This file implements incremental maintenance of the cluster space: applying
// batched answer-tuple appends and deletes, or a whole replacement ranking,
// to a built Index. The successor is copy-on-write — the receiver is never
// mutated, so readers holding the old index (concurrent summarize runs,
// in-flight precompute sweeps) stay safe — and it is bit-identical to a
// from-scratch rebuild over the updated answer set: same cluster ids,
// coverage, and floating-point sums, so every summarization algorithm
// produces byte-for-byte the same output either way (see delta_test.go).
//
// A successor's dictionaries extend the receiver's, so a code names the same
// value in both and tuples compare by code. One rule decides what carries
// over. The generation — cluster ids, keys, and the key table — depends only
// on the top-L tuples and the key layout, so a successor whose first L
// tuples and value bits equal the receiver's, and whose dictionaries pack
// into the same key layout, shares the receiver's generation; any other
// successor regenerates (L·2^m dedup probes). Coverage never carries over: a
// successor gets its own posting bitmaps and fills each cluster when it is
// first handed out, like any fresh index. A replacement ranking equal to the
// current one at every rank, bit for bit, is no change at all, and Rebase
// returns the receiver.

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
	// FastPath reports that the first L tuples and their value bits were
	// unchanged, so the cluster set and every cluster id were preserved
	// as-is (the regime warm-started summaries rely on to keep LCA memos).
	FastPath bool
	// TouchedClusters counts the clusters the successor generated afresh:
	// zero when it shares the predecessor's generation, every cluster when
	// it regenerates. No coverage is recomputed at maintenance time; every
	// successor starts with no cluster filled.
	TouchedClusters int
	// Repacked reports that the successor regenerated its keys (the top-L
	// prefix changed, or a newly interned dictionary id changed the key
	// layout) instead of sharing the previous index's generation.
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
			oi++
			for oi < s.N() && del[oi] {
				oi++
			}
		} else {
			a := ord[ai]
			tuples = append(tuples, appended[a])
			vals = append(vals, d.AppendVals[a])
			ai++
		}
	}
	nsp := &Space{Attrs: s.Attrs, Dicts: dicts, Tuples: tuples, Vals: vals}
	nix, err := ix.rebase(nsp, &stats)
	assertIndexInvariants(nix, "ApplyDelta")
	return nix, stats, err
}

// Rebase rebuilds the index incrementally over a full replacement answer set:
// rows and vals give the new ranking in non-increasing value order (the order
// an aggregate query emits). When every rank holds the same tuple with the
// same value bits as the receiver's, nothing changed, and Rebase returns the
// receiver itself with zero stats; callers detect a change by comparing the
// result with the receiver.
//
// Like ApplyDelta, Rebase is copy-on-write and bit-identical to rebuilding
// from (rows, vals) with NewSpace + BuildIndex.
func (ix *Index) Rebase(rows [][]string, vals []float64) (*Index, DeltaStats, error) {
	var stats DeltaStats
	s := ix.Space
	m := s.M()
	if len(rows) != len(vals) {
		return nil, stats, fmt.Errorf("lattice: rebase with %d rows but %d values", len(rows), len(vals))
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
	if len(tuples) == s.N() && samePrefix(s, tuples, vals, len(tuples)) {
		return ix, stats, nil
	}
	// Copy vals: the new Space owns its value array (a caller reusing its
	// result buffers must not be able to corrupt the installed index).
	nsp := &Space{Attrs: s.Attrs, Dicts: dicts, Tuples: tuples, Vals: append([]float64(nil), vals...)}
	nix, err := ix.rebase(nsp, &stats)
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

// samePrefix reports whether ranks 0..n-1 of s hold the given tuples, which
// are encoded in dictionaries extending s's, with the same value bits.
func samePrefix(s *Space, tuples []pattern.Pattern, vals []float64, n int) bool {
	for i := 0; i < n; i++ {
		if math.Float64bits(vals[i]) != math.Float64bits(s.Vals[i]) || !pattern.Equal(tuples[i], s.Tuples[i]) {
			return false
		}
	}
	return true
}

// rebase is the shared core: nsp is the new space, encoded in dictionaries
// extending the receiver's.
func (ix *Index) rebase(nsp *Space, stats *DeltaStats) (*Index, error) {
	if nsp.N() < ix.L {
		return nil, fmt.Errorf("lattice: delta shrinks the answer set to %d tuples, below L = %d", nsp.N(), ix.L)
	}
	stats.FastPath = samePrefix(ix.Space, nsp.Tuples, nsp.Vals, ix.L)
	codec := spaceCodec(nsp)
	g := ix.generation
	if !stats.FastPath || !codec.SameLayout(ix.codec) {
		g = generate(nsp, ix.L, codec)
		stats.Repacked = true
		stats.TouchedClusters = len(g.keys) / codec.Words()
	}
	nix := newIndex(nsp, ix.L, g)
	nix.buildPostings()
	return nix, nil
}

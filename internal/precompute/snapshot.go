package precompute

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"qagview/internal/intervaltree"
	"qagview/internal/lattice"
)

// snapshot is the wire form of a Store. Cluster ids refer to the index the
// store was computed against; decoding therefore requires rebuilding the
// identical index (index construction is deterministic for a given answer
// set and L, so persisting the query result alongside the snapshot is
// sufficient). Per-D entries are listed in ascending D, so equal stores
// encode to equal bytes.
type snapshot struct {
	L, KMin, KMax int
	Ds            []int
	PerD          []snapshotEntry
	NumClusters   int // sanity check against the index at decode time
	// Generation is the data generation the store was computed over (see
	// WithGeneration); snapshots written before versioning decode as 0.
	Generation uint64
}

type snapshotEntry struct {
	D         int
	Intervals []intervaltree.Interval
	Avg       []float64
	MinSize   int
}

// Encode serializes the store with encoding/gob.
func (s *Store) Encode(w io.Writer) error {
	snap := snapshot{
		L: s.L, KMin: s.KMin, KMax: s.KMax,
		Ds:          append([]int(nil), s.Ds...),
		PerD:        make([]snapshotEntry, 0, len(s.perD)),
		NumClusters: s.ix.NumClusters(),
		Generation:  s.gen,
	}
	for d, e := range s.perD {
		snap.PerD = append(snap.PerD, snapshotEntry{
			D:         d,
			Intervals: e.ivs,
			Avg:       append([]float64(nil), e.avg...),
			MinSize:   e.minSize,
		})
	}
	sort.Slice(snap.PerD, func(a, b int) bool { return snap.PerD[a].D < snap.PerD[b].D })
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("precompute: encoding store: %w", err)
	}
	return nil
}

// Decode reconstructs a store previously written by Encode, binding it to
// ix, which must be the index (same answer set and L) the store was computed
// against. Snapshots written before per-D entries were listed in D order
// (as a map) fail to decode; callers rebuild the store.
func Decode(r io.Reader, ix *lattice.Index) (*Store, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("precompute: decoding store: %w", err)
	}
	if snap.NumClusters != ix.NumClusters() {
		return nil, fmt.Errorf("precompute: snapshot was computed against an index with %d clusters, this index has %d",
			snap.NumClusters, ix.NumClusters())
	}
	if snap.L != ix.L {
		return nil, fmt.Errorf("precompute: snapshot L = %d but index L = %d", snap.L, ix.L)
	}
	st := &Store{
		ix: ix, L: snap.L, KMin: snap.KMin, KMax: snap.KMax,
		Ds:   snap.Ds,
		perD: make(map[int]*dEntry, len(snap.PerD)),
		gen:  snap.Generation,
	}
	for _, e := range snap.PerD {
		for _, iv := range e.Intervals {
			if iv.Payload < 0 || int(iv.Payload) >= ix.NumClusters() {
				return nil, fmt.Errorf("precompute: snapshot references cluster %d outside the index", iv.Payload)
			}
		}
		tree, err := intervaltree.Build(e.Intervals)
		if err != nil {
			return nil, err
		}
		st.perD[e.D] = &dEntry{tree: tree, ivs: e.Intervals, avg: e.Avg, minSize: e.MinSize}
	}
	return st, nil
}

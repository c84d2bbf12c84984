package summarize

// Warm start across data generations: when incremental maintenance
// (lattice.ApplyDelta, Rebase) produces a successor index, the next sweeper
// does not start from scratch. The maintainer (internal/delta) warms lazily,
// at the start of the next precompute, which a serving layer runs in the
// background after answering the refreshing read: the warm may then span
// several successive indexes at once, keeping LCA memos only if every step
// preserved cluster ids. The shared Fixed-Order phase must re-run — appended
// and deleted tuples change coverage sums, so the greedy choices may change,
// and correctness demands re-deriving them — but every allocation-heavy
// piece of replay state carries over: the base workset's dense membership
// and Delta-Judgment arrays, the coverage bitmaps, every idle replay state
// (worksets + pair buffers), and, when the delta preserved cluster ids, the
// LCA memos, whose id-keyed entries remain valid facts about the new index.
// The result is bit-identical to a cold NewSweeper over the same index (see
// warm_test.go); only the allocation profile differs.

// Warm returns a sweeper over the successor index ix, reusing this sweeper's
// state as described above. idsPreserved must be true only when every
// cluster id of the receiver's index names the same pattern in ix — the
// DeltaStats.FastPath guarantee of lattice.ApplyDelta, for every step
// between the two indexes — and controls whether
// LCA memos survive or are flushed. The receiver must not be used after
// Warm returns: its base workset and idle states now belong to the new
// sweeper.
func (sw *Sweeper) Warm(ix *Index, idsPreserved bool) (*Sweeper, error) {
	p := Params{K: sw.kMax * sw.cfg.hybridC, L: sw.l, D: 0}
	if err := p.Validate(ix); err != nil {
		return nil, err
	}
	ws := sw.base
	ws.adoptIndex(ix, idsPreserved)
	if err := fixedOrderPhase(ws, p, nil); err != nil {
		return nil, err
	}
	// Migrate every idle replay state to the new index and hand the list to
	// the successor.
	sw.mu.Lock()
	free := sw.free
	sw.free = nil
	sw.mu.Unlock()
	for _, st := range free {
		st.ws.adoptIndex(ix, idsPreserved)
	}
	return &Sweeper{ix: ix, cfg: sw.cfg, l: sw.l, kMax: sw.kMax, base: ws, free: free}, nil
}

// adoptIndex rebinds a workset to a successor index, growing the dense
// id-indexed and tuple-indexed arrays to the new shapes and resetting the
// solution state to empty (the state a fresh newWorkset presents). The
// Delta-Judgment cache and membership stamps are invalidated by the
// generation bump; keepMemo forwards the id-stability guarantee to the LCA
// memo of a replay state (see lattice.LCAMemo.Rebind).
func (ws *workset) adoptIndex(ix *Index, keepMemo bool) {
	ws.ix = ix
	nc := ix.NumClusters()
	if len(ws.inSol) < nc {
		ws.inSol = append(ws.inSol, make([]uint32, nc-len(ws.inSol))...)
	}
	if ws.delta && len(ws.cache) < nc {
		ws.cache = append(ws.cache, make([]deltaEntry, nc-len(ws.cache))...)
		ws.cacheGen = append(ws.cacheGen, make([]uint32, nc-len(ws.cacheGen))...)
	}
	// Tuple-indexed bitmaps must match the new tuple count exactly (resetFrom
	// copies whole bitmaps between worksets of one sweeper). The last delta
	// names tuples of the old space, meaningless now: both bitmaps start
	// zeroed.
	words := (ix.Space.N() + 63) / 64
	ws.covered = resizeBitset(ws.covered, words)
	ws.ldBits = resizeBitset(ws.ldBits, words)
	ws.ldLo, ws.ldHi = 0, 0
	if ws.lca != nil {
		ws.lca.Rebind(ix, keepMemo)
	}
	ws.gen++
	if ws.gen == 0 { // stamp wrap-around: clear and restart, as in resetFrom
		for i := range ws.inSol {
			ws.inSol[i] = 0
		}
		for i := range ws.cacheGen {
			ws.cacheGen[i] = 0
		}
		ws.gen = 1
	}
	ws.ids = ws.ids[:0]
	ws.sum, ws.cnt = 0, 0
	ws.round = 0
	ws.evalFull, ws.evalDelta = 0, 0
}

// resizeBitset returns a zeroed bitset of exactly `words` words, reusing the
// given backing array when it is large enough.
func resizeBitset(b bitset, words int) bitset {
	if cap(b) < words {
		return make(bitset, words)
	}
	b = b[:words]
	for i := range b {
		b[i] = 0
	}
	return b
}

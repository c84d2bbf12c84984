package summarize

import (
	"math/bits"
	"sort"

	"qagview/internal/lattice"
)

// workset is the mutable solution state shared by the greedy algorithms: the
// current cluster set, the covered-tuple bitmap with its running sum and
// count, and the Delta-Judgment cache (Algorithm 2 in the paper) that lets
// candidate evaluations reuse marginal-benefit computations from previous
// rounds.
//
// All per-cluster state is kept dense, indexed by cluster id, instead of in
// maps: membership and the Delta-Judgment cache are generation-stamped arrays
// (one O(1) bump invalidates everything, so a pooled workset resets without
// reallocating), and the solution itself is maintained as a sorted id slice.
// This makes a workset fully reusable across replays — see resetFrom.
//
// Coverage work runs over 64-bit words: a candidate's coverage bitmap
// (lattice.Cluster.Bits) is combined with the covered bitmap one word at a
// time, and the set bits of each word are visited lowest first. Every float
// is therefore added in ascending tuple order, the order the coverage lists
// were always summed in.
type workset struct {
	ix    *lattice.Index
	delta bool
	obj   Objective

	// ids is the current solution as cluster ids, sorted ascending.
	ids []int32
	// inSol stamps solution membership: inSol[id] == gen means id is in ids.
	inSol []uint32
	gen   uint32

	covered bitset
	sum     float64
	cnt     int

	// round is the merge round counter; it advances on every mutation.
	round int
	// ldBits holds the tuples newly covered in the previous round (the set
	// T_j \ T_{j-1} of Algorithm 2). Only its words [ldLo, ldHi), the span
	// of the non-zero ones, may be non-zero.
	ldBits     bitset
	ldLo, ldHi int

	// cache is the Delta-Judgment cache, dense by candidate cluster id; an
	// entry is live only while cacheGen[id] == gen.
	cache    []deltaEntry
	cacheGen []uint32

	// lca memoizes LCA cluster ids on replay states, whose per-D replays
	// probe the same pairs again; it is nil on every other workset.
	lca *lattice.LCAMemo

	// evalFull counts full coverage scans, for the Figure 8b ablation.
	evalFull int
	// evalDelta counts delta-updated evaluations.
	evalDelta int
}

// deltaEntry caches, for a candidate cluster c, the sum and count of tuples
// in cov(c) that were NOT covered by the solution as of round asOf.
type deltaEntry struct {
	asOf int32
	dcnt int32
	dsum float64
}

func newWorkset(ix *lattice.Index, useDelta bool) *workset {
	ws := &workset{
		ix:      ix,
		delta:   useDelta,
		gen:     1,
		inSol:   make([]uint32, ix.NumClusters()),
		covered: newBitset(ix.Space.N()),
		ldBits:  newBitset(ix.Space.N()),
	}
	if useDelta {
		ws.cache = make([]deltaEntry, ix.NumClusters())
		ws.cacheGen = make([]uint32, ix.NumClusters())
	}
	return ws
}

// size returns the number of clusters in the current solution.
func (ws *workset) size() int { return len(ws.ids) }

// has reports whether the cluster id is in the current solution.
func (ws *workset) has(id int32) bool { return ws.inSol[id] == ws.gen }

// avg returns the current objective value.
func (ws *workset) avg() float64 {
	if ws.cnt == 0 {
		return 0
	}
	return ws.sum / float64(ws.cnt)
}

// marginal returns the sum and count of tuples in cov(c) not yet covered.
// With Delta-Judgment enabled it reuses the cached marginals when they are at
// most one round stale, subtracting the contribution of the tuples that were
// newly covered last round (c's words AND ldBits, over the overlap of the two
// spans); otherwise it scans c's words AND-NOT the covered bitmap.
func (ws *workset) marginal(c *lattice.Cluster) (dsum float64, dcnt int) {
	vals := ws.ix.Space.Vals
	off := int(c.BitsOff)
	if ws.delta && ws.cacheGen[c.ID] == ws.gen {
		e := &ws.cache[c.ID]
		switch {
		case int(e.asOf) == ws.round:
			ws.evalDelta++
			return e.dsum, int(e.dcnt)
		case int(e.asOf) == ws.round-1:
			for w := max(off, ws.ldLo); w < min(off+len(c.Bits), ws.ldHi); w++ {
				x := c.Bits[w-off] & ws.ldBits[w]
				e.dcnt -= int32(bits.OnesCount64(x))
				for ; x != 0; x &= x - 1 {
					e.dsum -= vals[w<<6|bits.TrailingZeros64(x)]
				}
			}
			e.asOf = int32(ws.round)
			ws.evalDelta++
			return e.dsum, int(e.dcnt)
		}
	}
	ws.evalFull++
	covered := ws.covered[off : off+len(c.Bits)]
	for i, b := range c.Bits {
		x := b &^ covered[i]
		dcnt += bits.OnesCount64(x)
		for ; x != 0; x &= x - 1 {
			dsum += vals[(off+i)<<6|bits.TrailingZeros64(x)]
		}
	}
	if ws.delta {
		ws.cache[c.ID] = deltaEntry{asOf: int32(ws.round), dsum: dsum, dcnt: int32(dcnt)}
		ws.cacheGen[c.ID] = ws.gen
	}
	return dsum, dcnt
}

// evalAdd returns the objective value of the solution if cluster c were
// added (covering its uncovered tuples), per the tentative-value formula of
// Section 6.3. Under the MinSize objective, fewer total covered elements is
// better, so the score is the negated tentative coverage count.
func (ws *workset) evalAdd(c *lattice.Cluster) float64 {
	dsum, dcnt := ws.marginal(c)
	if ws.obj == MinSize {
		return -float64(ws.cnt + dcnt)
	}
	if ws.cnt+dcnt == 0 {
		return 0
	}
	return (ws.sum + dsum) / float64(ws.cnt+dcnt)
}

// add inserts cluster c into the solution, removing any existing clusters
// that c covers (the Merge procedure's incomparability maintenance), and
// extends the covered set.
func (ws *workset) add(c *lattice.Cluster) {
	keep := ws.ids[:0]
	for _, id := range ws.ids {
		if id != c.ID && ws.ix.Covers(c.ID, id) {
			ws.inSol[id] = 0
		} else {
			keep = append(keep, id)
		}
	}
	ws.ids = keep
	if !ws.has(c.ID) {
		ws.inSol[c.ID] = ws.gen
		pos := sort.Search(len(ws.ids), func(i int) bool { return ws.ids[i] >= c.ID })
		ws.ids = append(ws.ids, 0)
		copy(ws.ids[pos+1:], ws.ids[pos:])
		ws.ids[pos] = c.ID
	}
	// The words c newly covers become the last delta, in place of the
	// previous round's.
	clear(ws.ldBits[ws.ldLo:ws.ldHi])
	ws.ldLo, ws.ldHi = 0, 0
	vals := ws.ix.Space.Vals
	off := int(c.BitsOff)
	for i, b := range c.Bits {
		w := off + i
		x := b &^ ws.covered[w]
		if x == 0 {
			continue
		}
		if ws.ldHi == 0 {
			ws.ldLo = w
		}
		ws.ldHi = w + 1
		ws.covered[w] |= x
		ws.ldBits[w] = x
		ws.cnt += bits.OnesCount64(x)
		for ; x != 0; x &= x - 1 {
			ws.sum += vals[w<<6|bits.TrailingZeros64(x)]
		}
	}
	ws.round++
}

// lcaID returns the id of the LCA cluster of a and b: through the memo on a
// replay state, straight from the packed keys elsewhere.
func (ws *workset) lcaID(a, b int32) (int32, error) {
	if ws.lca != nil {
		return ws.lca.LCAID(a, b)
	}
	return ws.ix.LCAID(a, b)
}

// resetFrom rewinds the workset to base's solution state, reusing every
// buffer: one generation bump invalidates the membership stamps and the
// whole Delta-Judgment cache in O(1), and the coverage bitmap is overwritten
// in place. The LCA memo, if any, is deliberately kept — it caches
// index-level facts that never go stale. After resetFrom the workset behaves
// exactly like a fresh deep copy of base with an empty cache (the contract
// the per-D precompute replays relied on when this was workset.clone).
func (ws *workset) resetFrom(base *workset) {
	ws.gen++
	if ws.gen == 0 { // stamp wrap-around: clear and restart
		for i := range ws.inSol {
			ws.inSol[i] = 0
		}
		for i := range ws.cacheGen {
			ws.cacheGen[i] = 0
		}
		ws.gen = 1
	}
	ws.obj = base.obj
	ws.ids = append(ws.ids[:0], base.ids...)
	for _, id := range ws.ids {
		ws.inSol[id] = ws.gen
	}
	copy(ws.covered, base.covered)
	ws.sum, ws.cnt = base.sum, base.cnt
	ws.round = 0
	clear(ws.ldBits[ws.ldLo:ws.ldHi])
	ws.ldLo, ws.ldHi = 0, 0
	ws.evalFull, ws.evalDelta = 0, 0
}

// solution snapshots the current state as a Solution.
func (ws *workset) solution() *Solution {
	out := make([]*lattice.Cluster, 0, len(ws.ids))
	for _, id := range ws.ids {
		out = append(out, ws.ix.Cluster(id))
	}
	return newSolution(ws.ix, out)
}

package summarize

// This file carries a reference implementation of the greedy engine — the
// original map-and-pointer workset (map-keyed solution and Delta-Judgment
// cache, per-call sorted-id slices, binary-search delta updates) — and
// equivalence tests proving the dense engine (generation-stamped arrays,
// sorted id list, last-delta bitset, LCA memo, pooled replay states)
// produces bit-identical solutions for every algorithm, on synthetic spaces
// and on a MovieLens-derived space built through the SQL front end.
//
// Both sides assemble their final Solution from cluster ids in ascending
// order, so coverage unions and floating-point sums accumulate in the same
// order and the comparison can demand exact bit equality (math.Float64bits)
// rather than tolerances.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"qagview/internal/engine"
	"qagview/internal/kmodes"
	"qagview/internal/lattice"
	"qagview/internal/movielens"
	"qagview/internal/pattern"
	"qagview/internal/relation"
)

// ---- reference workset (the pre-dense implementation) ----

type refWorkset struct {
	ix    *lattice.Index
	delta bool
	obj   Objective

	clusters map[int32]*lattice.Cluster
	covered  bitset
	sum      float64
	cnt      int

	round     int
	lastDelta []int32

	cache map[int32]*refDeltaEntry
}

type refDeltaEntry struct {
	asOf int
	dsum float64
	dcnt int
}

func newRefWorkset(ix *lattice.Index, useDelta bool) *refWorkset {
	return &refWorkset{
		ix:       ix,
		delta:    useDelta,
		clusters: make(map[int32]*lattice.Cluster),
		covered:  newBitset(ix.Space.N()),
		cache:    make(map[int32]*refDeltaEntry),
	}
}

func (ws *refWorkset) size() int { return len(ws.clusters) }

func refContainsSorted(cov []int32, t int32) bool {
	i := sort.Search(len(cov), func(i int) bool { return cov[i] >= t })
	return i < len(cov) && cov[i] == t
}

func (ws *refWorkset) marginal(c *lattice.Cluster) (dsum float64, dcnt int) {
	if ws.delta {
		if e, ok := ws.cache[c.ID]; ok {
			switch {
			case e.asOf == ws.round:
				return e.dsum, e.dcnt
			case e.asOf == ws.round-1:
				for _, t := range ws.lastDelta {
					if refContainsSorted(c.Cov, t) {
						e.dsum -= ws.ix.Space.Vals[t]
						e.dcnt--
					}
				}
				e.asOf = ws.round
				return e.dsum, e.dcnt
			}
		}
	}
	for _, t := range c.Cov {
		if !ws.covered.has(t) {
			dsum += ws.ix.Space.Vals[t]
			dcnt++
		}
	}
	if ws.delta {
		ws.cache[c.ID] = &refDeltaEntry{asOf: ws.round, dsum: dsum, dcnt: dcnt}
	}
	return dsum, dcnt
}

func (ws *refWorkset) evalAdd(c *lattice.Cluster) float64 {
	dsum, dcnt := ws.marginal(c)
	if ws.obj == MinSize {
		return -float64(ws.cnt + dcnt)
	}
	if ws.cnt+dcnt == 0 {
		return 0
	}
	return (ws.sum + dsum) / float64(ws.cnt+dcnt)
}

func (ws *refWorkset) add(c *lattice.Cluster) {
	for id, old := range ws.clusters {
		if id != c.ID && c.Pat.Covers(old.Pat) {
			delete(ws.clusters, id)
		}
	}
	ws.clusters[c.ID] = c
	var newly []int32
	for _, t := range c.Cov {
		if !ws.covered.has(t) {
			ws.covered.set(t)
			ws.sum += ws.ix.Space.Vals[t]
			ws.cnt++
			newly = append(newly, t)
		}
	}
	ws.round++
	ws.lastDelta = newly
}

func (ws *refWorkset) merge(a, b *lattice.Cluster) (*lattice.Cluster, error) {
	lca, err := ws.ix.LCACluster(a, b)
	if err != nil {
		return nil, err
	}
	ws.add(lca)
	return lca, nil
}

func (ws *refWorkset) sortedIDs() []int32 {
	ids := make([]int32, 0, len(ws.clusters))
	for id := range ws.clusters {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// solution assembles the reference solution from ids in ascending order, the
// same order the dense engine uses, so the comparison can be bitwise.
func (ws *refWorkset) solution() *Solution {
	ids := ws.sortedIDs()
	out := make([]*lattice.Cluster, 0, len(ids))
	for _, id := range ids {
		out = append(out, ws.ix.Cluster(id))
	}
	return newSolution(ws.ix, out)
}

func (ws *refWorkset) clone() *refWorkset {
	c := newRefWorkset(ws.ix, ws.delta)
	c.obj = ws.obj
	for id, cl := range ws.clusters {
		c.clusters[id] = cl
	}
	c.covered = ws.covered.clone()
	c.sum = ws.sum
	c.cnt = ws.cnt
	return c
}

// ---- reference pair set ----

type refPairSet struct {
	ws    *refWorkset
	pairs []pairInfo
}

func newRefPairSet(ws *refWorkset) *refPairSet {
	ps := &refPairSet{ws: ws}
	ids := ws.sortedIDs()
	for i, a := range ids {
		ca := ws.clusters[a]
		for _, b := range ids[i+1:] {
			cb := ws.clusters[b]
			ps.pairs = append(ps.pairs, pairInfo{
				a: a, b: b, lca: -1,
				dist: int32(pattern.Distance(ca.Pat, cb.Pat)),
			})
		}
	}
	return ps
}

func (ps *refPairSet) best(filter func(dist int) bool, eval evaluator) (pairInfo, bool) {
	alive := ps.pairs[:0]
	var best pairInfo
	bestVal := 0.0
	found := false
	for _, pi := range ps.pairs {
		if _, ok := ps.ws.clusters[pi.a]; !ok {
			continue
		}
		if _, ok := ps.ws.clusters[pi.b]; !ok {
			continue
		}
		alive = append(alive, pi)
		if filter != nil && !filter(int(pi.dist)) {
			continue
		}
		idx := len(alive) - 1
		if alive[idx].lca < 0 {
			lca, err := ps.ws.ix.LCACluster(ps.ws.clusters[pi.a], ps.ws.clusters[pi.b])
			if err != nil {
				panic(err)
			}
			alive[idx].lca = lca.ID
		}
		v := eval(ps.ws.ix.Cluster(alive[idx].lca))
		if !found || v > bestVal {
			found = true
			bestVal = v
			best = alive[idx]
		}
	}
	ps.pairs = alive
	return best, found
}

func (ps *refPairSet) merge(pi pairInfo) error {
	a, b := ps.ws.clusters[pi.a], ps.ws.clusters[pi.b]
	lca, err := ps.ws.merge(a, b)
	if err != nil {
		return err
	}
	for _, id := range ps.ws.sortedIDs() {
		if id == lca.ID {
			continue
		}
		other := ps.ws.clusters[id]
		x, y := lca.ID, id
		if x > y {
			x, y = y, x
		}
		ps.pairs = append(ps.pairs, pairInfo{
			a: x, b: y, lca: -1,
			dist: int32(pattern.Distance(lca.Pat, other.Pat)),
		})
	}
	return nil
}

func refBottomUpPhases(ws *refWorkset, p Params, eval evaluator) error {
	ps := newRefPairSet(ws)
	for {
		pi, ok := ps.best(func(d int) bool { return d < p.D }, eval)
		if !ok {
			break
		}
		if err := ps.merge(pi); err != nil {
			return err
		}
	}
	for ws.size() > p.K {
		pi, ok := ps.best(nil, eval)
		if !ok {
			break
		}
		if err := ps.merge(pi); err != nil {
			return err
		}
	}
	return nil
}

// ---- reference fixed-order phase ----

func refFixedOrderProcess(ws *refWorkset, p Params, cand *lattice.Cluster) error {
	for _, c := range ws.clusters {
		if c.Pat.Covers(cand.Pat) {
			return nil
		}
	}
	if ws.size() < p.K {
		minDist := int(^uint(0) >> 1)
		for _, c := range ws.clusters {
			if d := pattern.Distance(cand.Pat, c.Pat); d < minDist {
				minDist = d
			}
		}
		if ws.size() == 0 || minDist >= p.D {
			ws.add(cand)
			return nil
		}
		return refMergeBestPartner(ws, cand, func(d int) bool { return d < p.D })
	}
	return refMergeBestPartner(ws, cand, nil)
}

func refMergeBestPartner(ws *refWorkset, cand *lattice.Cluster, filter func(dist int) bool) error {
	var best *lattice.Cluster
	bestVal := 0.0
	for _, id := range ws.sortedIDs() {
		c := ws.clusters[id]
		if filter != nil && !filter(pattern.Distance(cand.Pat, c.Pat)) {
			continue
		}
		lca, err := ws.ix.LCACluster(c, cand)
		if err != nil {
			return err
		}
		v := ws.evalAdd(lca)
		if best == nil || v > bestVal {
			best = lca
			bestVal = v
		}
	}
	if best == nil {
		panic("summarize: no merge partner (reference)")
	}
	ws.add(best)
	return nil
}

func refFixedOrderPhase(ws *refWorkset, p Params, seeds []*lattice.Cluster) error {
	for _, s := range seeds {
		if err := refFixedOrderProcess(ws, p, s); err != nil {
			return err
		}
	}
	for rank := 0; rank < p.L; rank++ {
		if ws.covered.has(int32(rank)) {
			continue
		}
		if err := refFixedOrderProcess(ws, p, ws.ix.Singleton(rank)); err != nil {
			return err
		}
	}
	return nil
}

// ---- reference algorithm drivers ----

func refRun(algo Algorithm, ix *lattice.Index, p Params, opts ...Option) (*Solution, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := p.Validate(ix); err != nil {
		return nil, err
	}
	ws := newRefWorkset(ix, cfg.delta)
	ws.obj = cfg.obj
	switch algo {
	case AlgoBottomUp, AlgoBottomUpMaxLCA:
		for rank := 0; rank < p.L; rank++ {
			ws.add(ix.Singleton(rank))
		}
		eval := ws.evalAdd
		if algo == AlgoBottomUpMaxLCA {
			eval = func(lca *lattice.Cluster) float64 { return lca.Avg() }
		}
		if err := refBottomUpPhases(ws, p, eval); err != nil {
			return nil, err
		}
	case AlgoBottomUpLevelStart:
		level := levelStartLevel(p.D, ix.Space.M())
		for rank := 0; rank < p.L; rank++ {
			anc := ix.Space.Tuples[rank].Clone()
			for j := len(anc) - level; j < len(anc); j++ {
				anc[j] = pattern.Star
			}
			c, ok := ix.Lookup(anc)
			if !ok {
				panic("summarize: level-start ancestor missing from index (reference)")
			}
			skip := false
			for _, cur := range ws.clusters {
				if cur.Pat.Covers(c.Pat) {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			ws.add(c)
		}
		if err := refBottomUpPhases(ws, p, ws.evalAdd); err != nil {
			return nil, err
		}
	case AlgoFixedOrder:
		if err := refFixedOrderPhase(ws, p, nil); err != nil {
			return nil, err
		}
	case AlgoHybrid:
		if cfg.hybridC < 1 {
			cfg.hybridC = 1
		}
		pool := p
		pool.K = cfg.hybridC * p.K
		if err := refFixedOrderPhase(ws, pool, nil); err != nil {
			return nil, err
		}
		if err := refBottomUpPhases(ws, p, ws.evalAdd); err != nil {
			return nil, err
		}
	case AlgoRandomFixedOrder:
		k := p.K
		if k > p.L {
			k = p.L
		}
		var seeds []*lattice.Cluster
		for _, rank := range cfg.rng.Perm(p.L)[:k] {
			seeds = append(seeds, ix.Singleton(rank))
		}
		if err := refFixedOrderPhase(ws, p, seeds); err != nil {
			return nil, err
		}
	case AlgoKMeansFixedOrder:
		topL := make([][]int32, p.L)
		for rank := 0; rank < p.L; rank++ {
			topL[rank] = ix.Space.Tuples[rank]
		}
		km, err := kmodes.Cluster(topL, p.K, cfg.rng, 50)
		if err != nil {
			return nil, err
		}
		var seeds []*lattice.Cluster
		for _, members := range km.Members() {
			if len(members) == 0 {
				continue
			}
			pat := pattern.FromTuple(topL[members[0]])
			for _, mi := range members[1:] {
				pattern.LCAInto(pat, pat, pattern.FromTuple(topL[mi]))
			}
			c, ok := ix.Lookup(pat)
			if !ok {
				return nil, fmt.Errorf("summarize: k-modes seed %v missing from index (reference)", pat)
			}
			seeds = append(seeds, c)
		}
		if err := refFixedOrderPhase(ws, p, seeds); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("refRun: unsupported algorithm %q", algo)
	}
	return ws.solution(), nil
}

// refRunD is the reference per-D sweep replay (clone-based, no pooling).
func refRunD(base *refWorkset, D, kMin int) (*SweepStates, error) {
	ws := base.clone()
	ps := newRefPairSet(ws)
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
		st.Clusters = ws.sortedIDs()
		out.States = append(out.States, st)
	}
	snapshot()
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

// ---- equivalence assertions ----

func assertBitIdentical(t *testing.T, label string, dense, ref *Solution) {
	t.Helper()
	if dense.Size() != ref.Size() {
		t.Fatalf("%s: dense has %d clusters, reference %d", label, dense.Size(), ref.Size())
	}
	for i := range dense.Clusters {
		if dense.Clusters[i].ID != ref.Clusters[i].ID {
			t.Fatalf("%s: cluster %d is id %d dense vs %d reference",
				label, i, dense.Clusters[i].ID, ref.Clusters[i].ID)
		}
	}
	if len(dense.Covered) != len(ref.Covered) {
		t.Fatalf("%s: covered %d dense vs %d reference", label, len(dense.Covered), len(ref.Covered))
	}
	for i := range dense.Covered {
		if dense.Covered[i] != ref.Covered[i] {
			t.Fatalf("%s: covered[%d] = %d dense vs %d reference", label, i, dense.Covered[i], ref.Covered[i])
		}
	}
	if math.Float64bits(dense.Sum) != math.Float64bits(ref.Sum) {
		t.Fatalf("%s: Sum %v (%x) dense vs %v (%x) reference",
			label, dense.Sum, math.Float64bits(dense.Sum), ref.Sum, math.Float64bits(ref.Sum))
	}
}

var equivalenceAlgos = []Algorithm{
	AlgoBottomUp, AlgoFixedOrder, AlgoHybrid,
	AlgoBottomUpMaxLCA, AlgoBottomUpLevelStart,
	AlgoRandomFixedOrder, AlgoKMeansFixedOrder,
}

func checkEquivalenceGrid(t *testing.T, name string, ix *lattice.Index, params []Params) {
	t.Helper()
	for _, p := range params {
		for _, useDelta := range []bool{true, false} {
			for _, algo := range equivalenceAlgos {
				label := fmt.Sprintf("%s/%s/%+v/delta=%v", name, algo, p, useDelta)
				// Separate rng instances with the same seed keep the random
				// variants' draws aligned between the two engines.
				dense, err := Run(algo, ix, p, WithDelta(useDelta), WithRand(rand.New(rand.NewSource(99))))
				if err != nil {
					t.Fatalf("%s: dense: %v", label, err)
				}
				ref, err := refRun(algo, ix, p, WithDelta(useDelta), WithRand(rand.New(rand.NewSource(99))))
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				assertBitIdentical(t, label, dense, ref)
			}
		}
	}
}

// TestDenseEngineMatchesReferenceSynthetic proves the dense engine against
// the reference on random synthetic spaces over a parameter grid, all
// algorithms, delta on and off.
func TestDenseEngineMatchesReferenceSynthetic(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		ix := randomIndex(t, 900+seed, 120, 5, 3, 30)
		checkEquivalenceGrid(t, fmt.Sprintf("seed%d", seed), ix, []Params{
			{K: 1, L: 10, D: 0},
			{K: 4, L: 30, D: 2},
			{K: 8, L: 15, D: 3},
			{K: 6, L: 30, D: 5},
			{K: 25, L: 30, D: 1},
		})
	}
}

// TestDenseEngineMatchesReferenceMinSize repeats the grid under the MinSize
// objective, exercising evalAdd's negated-count branch end to end.
func TestDenseEngineMatchesReferenceMinSize(t *testing.T) {
	ix := randomIndex(t, 950, 120, 4, 4, 30)
	for _, p := range []Params{{K: 4, L: 30, D: 2}, {K: 8, L: 20, D: 1}} {
		for _, algo := range []Algorithm{AlgoBottomUp, AlgoFixedOrder, AlgoHybrid} {
			label := fmt.Sprintf("minsize/%s/%+v", algo, p)
			dense, err := Run(algo, ix, p, WithObjective(MinSize))
			if err != nil {
				t.Fatalf("%s: dense: %v", label, err)
			}
			ref, err := refRun(algo, ix, p, WithObjective(MinSize))
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			assertBitIdentical(t, label, dense, ref)
		}
	}
}

// TestDenseSweeperMatchesReference proves the pooled replay path: every
// (D, kMin) trace from the pooled Sweeper must be bit-identical to the
// reference clone-based replay, including on repeated (pool-reusing) calls.
func TestDenseSweeperMatchesReference(t *testing.T) {
	ix := randomIndex(t, 960, 150, 4, 4, 30)
	kMax := 10
	sw, err := NewSweeper(ix, 30, kMax)
	if err != nil {
		t.Fatal(err)
	}
	refBase := newRefWorkset(ix, true)
	if err := refFixedOrderPhase(refBase, Params{K: kMax * 2, L: 30, D: 0}, nil); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // round 2 hits the pooled states
		for D := 0; D <= ix.Space.M(); D++ {
			dense, err := sw.RunD(D, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refRunD(refBase, D, 1)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("round%d/D=%d", round, D)
			if len(dense.States) != len(ref.States) {
				t.Fatalf("%s: %d states dense vs %d reference", label, len(dense.States), len(ref.States))
			}
			for j := range dense.States {
				a, b := &dense.States[j], &ref.States[j]
				if a.Size != b.Size || a.Count != b.Count ||
					math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
					t.Fatalf("%s state %d: %+v dense vs %+v reference", label, j, a, b)
				}
				for x := range a.Clusters {
					if a.Clusters[x] != b.Clusters[x] {
						t.Fatalf("%s state %d cluster %d: %d dense vs %d reference",
							label, j, x, a.Clusters[x], b.Clusters[x])
					}
				}
			}
		}
	}
}

// TestOneWordIndexMatchesMultiWordIndex pins the key width out of every
// algorithm: the same space keyed in one word and, with its dictionaries
// padded by unused values, in two words must drive the dense engine to
// bit-identical solutions and sweep traces (the key width changes the key
// and the Covers/Distance/LCA machinery, never a decision).
func TestOneWordIndexMatchesMultiWordIndex(t *testing.T) {
	s := randomIndex(t, 970, 140, 5, 3, 30).Space
	dicts := make([]*relation.Dict, s.M())
	for j, d := range s.Dicts {
		// 4096 entries need 13-bit fields: five of them overflow one word.
		dicts[j] = d.Clone()
		for i := d.Len(); i < 1<<12; i++ {
			dicts[j].ID(fmt.Sprintf("pad%d_%d", j, i))
		}
	}
	padded := &lattice.Space{Attrs: s.Attrs, Dicts: dicts, Tuples: s.Tuples, Vals: s.Vals}
	ixOne, oneStats, err := lattice.BuildIndexStats(s, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	ixTwo, twoStats, err := lattice.BuildIndexStats(padded, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	if oneStats.KeyWords != 1 || twoStats.KeyWords != 2 {
		t.Fatalf("key words %d and %d, want 1 and 2", oneStats.KeyWords, twoStats.KeyWords)
	}
	params := []Params{
		{K: 4, L: 30, D: 2},
		{K: 8, L: 15, D: 3},
		{K: 25, L: 30, D: 1},
	}
	for _, p := range params {
		for _, useDelta := range []bool{true, false} {
			for _, algo := range equivalenceAlgos {
				label := fmt.Sprintf("one-vs-two-words/%s/%+v/delta=%v", algo, p, useDelta)
				a, err := Run(algo, ixOne, p, WithDelta(useDelta), WithRand(rand.New(rand.NewSource(7))))
				if err != nil {
					t.Fatalf("%s: one word: %v", label, err)
				}
				b, err := Run(algo, ixTwo, p, WithDelta(useDelta), WithRand(rand.New(rand.NewSource(7))))
				if err != nil {
					t.Fatalf("%s: two words: %v", label, err)
				}
				assertBitIdentical(t, label, a, b)
			}
		}
	}
	swOne, err := NewSweeper(ixOne, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	swTwo, err := NewSweeper(ixTwo, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	for D := 0; D <= ixOne.Space.M(); D++ {
		a, err := swOne.RunD(D, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := swTwo.RunD(D, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.States) != len(b.States) {
			t.Fatalf("D=%d: %d states at one word vs %d at two", D, len(a.States), len(b.States))
		}
		for j := range a.States {
			x, y := &a.States[j], &b.States[j]
			if x.Size != y.Size || x.Count != y.Count ||
				math.Float64bits(x.Sum) != math.Float64bits(y.Sum) {
				t.Fatalf("D=%d state %d: %+v at one word vs %+v at two", D, j, x, y)
			}
			for i := range x.Clusters {
				if x.Clusters[i] != y.Clusters[i] {
					t.Fatalf("D=%d state %d cluster %d: %d at one word vs %d at two", D, j, i, x.Clusters[i], y.Clusters[i])
				}
			}
		}
	}
}

// movieLensIndex builds a cluster index from a synthetic MovieLens aggregate
// query executed through the SQL front end, like the paper's experiments.
func movieLensIndex(t *testing.T, m, minCount, L int) *lattice.Index {
	t.Helper()
	rel, err := movielens.Generate(movielens.Config{Users: 200, Movies: 300, Ratings: 20_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sql, err := movielens.Query(m, minCount, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ExecuteSQL(singleTableCatalog{rel}, sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.N() < L {
		L = res.N()
	}
	space, err := lattice.NewSpace(res.GroupBy, res.Rows, res.Vals)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := lattice.BuildIndex(space, L)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

type singleTableCatalog struct{ rel *relation.Relation }

func (c singleTableCatalog) Table(string) (*relation.Relation, error) { return c.rel, nil }

// TestDenseEngineMatchesReferenceMovieLens proves equivalence on the
// MovieLens-shaped workload (m=6, L up to 150), for all algorithms and a
// sweep replay.
func TestDenseEngineMatchesReferenceMovieLens(t *testing.T) {
	ix := movieLensIndex(t, 6, 5, 150)
	L := ix.L
	checkEquivalenceGrid(t, "movielens", ix, []Params{
		{K: 10, L: L, D: 2},
		{K: 5, L: L / 2, D: 3},
	})
	sw, err := NewSweeper(ix, L, 12)
	if err != nil {
		t.Fatal(err)
	}
	refBase := newRefWorkset(ix, true)
	if err := refFixedOrderPhase(refBase, Params{K: 24, L: L, D: 0}, nil); err != nil {
		t.Fatal(err)
	}
	for _, D := range []int{1, 2, 4} {
		dense, err := sw.RunD(D, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refRunD(refBase, D, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(dense.States) != len(ref.States) {
			t.Fatalf("D=%d: %d states dense vs %d reference", D, len(dense.States), len(ref.States))
		}
		for j := range dense.States {
			a, b := &dense.States[j], &ref.States[j]
			if a.Size != b.Size || a.Count != b.Count ||
				math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
				t.Fatalf("D=%d state %d: %+v dense vs %+v reference", D, j, a, b)
			}
			for x := range a.Clusters {
				if a.Clusters[x] != b.Clusters[x] {
					t.Fatalf("D=%d state %d cluster %d differs", D, j, x)
				}
			}
		}
	}
}

package lattice

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// renderAll renders every tuple of a space back to attribute strings, in rank
// order — the row list a from-scratch rebuild of the same space starts from.
func renderAll(s *Space) [][]string {
	rows := make([][]string, s.N())
	for i, t := range s.Tuples {
		rows[i] = s.Render(t)
	}
	return rows
}

// applyToRows mirrors a Delta on plain row/value lists: kept rows stay in
// order, appended rows go at the end (NewSpace's stable sort places them).
func applyToRows(rows [][]string, vals []float64, d Delta) ([][]string, []float64) {
	del := make(map[int]bool, len(d.DeleteRanks))
	for _, r := range d.DeleteRanks {
		del[r] = true
	}
	var outRows [][]string
	var outVals []float64
	for i := range rows {
		if del[i] {
			continue
		}
		outRows = append(outRows, rows[i])
		outVals = append(outVals, vals[i])
	}
	outRows = append(outRows, d.AppendRows...)
	outVals = append(outVals, d.AppendVals...)
	return outRows, outVals
}

// assertIndexEquivalent compares two indexes built over independently encoded
// spaces (dictionary ids may differ): cluster ids must align one to one with
// identical rendered patterns, coverage lists, and exact value-sum bits, and
// the spaces must rank identical rows with identical value bits.
func assertIndexEquivalent(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if got.Space.N() != want.Space.N() {
		t.Fatalf("%s: %d tuples vs %d", label, got.Space.N(), want.Space.N())
	}
	for i := range got.Space.Tuples {
		gr := got.Space.Render(got.Space.Tuples[i])
		wr := want.Space.Render(want.Space.Tuples[i])
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("%s: rank %d row %v vs %v", label, i, gr, wr)
		}
		if math.Float64bits(got.Space.Vals[i]) != math.Float64bits(want.Space.Vals[i]) {
			t.Fatalf("%s: rank %d value %v vs %v", label, i, got.Space.Vals[i], want.Space.Vals[i])
		}
	}
	if got.NumClusters() != want.NumClusters() {
		t.Fatalf("%s: %d clusters vs %d", label, got.NumClusters(), want.NumClusters())
	}
	for i := int32(0); i < int32(got.NumClusters()); i++ {
		cg, cw := got.Cluster(i), want.Cluster(i)
		if cg.ID != cw.ID {
			t.Fatalf("%s: cluster %d has id %d vs %d", label, i, cg.ID, cw.ID)
		}
		pg := got.Space.Render(cg.Pat)
		pw := want.Space.Render(cw.Pat)
		if !reflect.DeepEqual(pg, pw) {
			t.Fatalf("%s: cluster %d pattern %v vs %v", label, i, pg, pw)
		}
		if !reflect.DeepEqual(cg.Cov, cw.Cov) {
			t.Fatalf("%s: cluster %d coverage %v vs %v", label, i, cg.Cov, cw.Cov)
		}
		if math.Float64bits(cg.Sum) != math.Float64bits(cw.Sum) {
			t.Fatalf("%s: cluster %d sum %v (%x) vs %v (%x)",
				label, i, cg.Sum, math.Float64bits(cg.Sum), cw.Sum, math.Float64bits(cw.Sum))
		}
	}
	for rank := 0; rank < got.L; rank++ {
		if got.Singleton(rank).ID != want.Singleton(rank).ID {
			t.Fatalf("%s: singleton %d is %d vs %d", label, rank, got.Singleton(rank).ID, want.Singleton(rank).ID)
		}
	}
	if got.AllStar().ID != want.AllStar().ID {
		t.Fatalf("%s: all-star %d vs %d", label, got.AllStar().ID, want.AllStar().ID)
	}
	if got.CoverageArenaLen() != want.CoverageArenaLen() {
		t.Fatalf("%s: arena %d vs %d", label, got.CoverageArenaLen(), want.CoverageArenaLen())
	}
}

// applyAndCheck applies d to ix and asserts the result is bit-identical to a
// from-scratch rebuild over the updated row list, returning the maintained
// index and its stats for further chaining.
func applyAndCheck(t *testing.T, label string, ix *Index, d Delta) (*Index, DeltaStats) {
	t.Helper()
	rows, vals := applyToRows(renderAll(ix.Space), ix.Space.Vals, d)
	nix, stats, err := ix.ApplyDelta(d)
	if err != nil {
		t.Fatalf("%s: ApplyDelta: %v", label, err)
	}
	rs, err := NewSpace(ix.Space.Attrs, rows, vals)
	if err != nil {
		t.Fatalf("%s: rebuild space: %v", label, err)
	}
	rebuilt, err := BuildIndex(rs, ix.L)
	if err != nil {
		t.Fatalf("%s: rebuild index: %v", label, err)
	}
	assertIndexEquivalent(t, label, nix, rebuilt)
	return nix, stats
}

// lowVal returns a value strictly below the top-L threshold of the space, so
// an append with it cannot disturb the top-L prefix.
func lowVal(ix *Index, off float64) float64 {
	return ix.Space.Vals[ix.L-1] - 1 - off
}

// randomRow draws a row from the space's active domains, with a chance of a
// brand-new value per attribute.
func randomRow(rng *rand.Rand, s *Space, freshProb float64) []string {
	row := make([]string, s.M())
	for j := range row {
		if rng.Float64() < freshProb {
			row[j] = fmt.Sprintf("fresh%d_%d", j, rng.Intn(50))
			continue
		}
		vals := s.Dicts[j].Values()
		row[j] = vals[rng.Intn(len(vals))]
	}
	return row
}

// TestApplyDeltaFastPath pins the unchanged-top-L regime: appends ranking
// below L and deletes at ranks >= L maintain coverage in place with every
// cluster id preserved, bit-identical to the rebuild.
func TestApplyDeltaFastPath(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		s := randomSpace(t, 90+seed, 120, 4, 4)
		ix, err := BuildIndex(s, 30)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1000 + seed))
		d := Delta{DeleteRanks: []int{s.N() - 1, ix.L + 2, ix.L}}
		for i := 0; i < 10; i++ {
			d.AppendRows = append(d.AppendRows, randomRow(rng, s, 0))
			d.AppendVals = append(d.AppendVals, lowVal(ix, rng.Float64()))
		}
		nix, stats := applyAndCheck(t, fmt.Sprintf("seed%d", seed), ix, d)
		if !stats.FastPath {
			t.Fatalf("expected the fast path, got %+v", stats)
		}
		if stats.TouchedClusters != 0 || stats.Repacked || nix.generation != ix.generation {
			t.Fatalf("fast path regenerated instead of sharing the generation: %+v", stats)
		}
		if nix.NumClusters() != ix.NumClusters() {
			t.Fatalf("cluster count changed: %d vs %d", nix.NumClusters(), ix.NumClusters())
		}
	}
}

// TestApplyDeltaTopLChurn pins the slow path: appends entering the top L and
// deletes inside it regenerate the cluster set, every cluster of it, still
// bit-identical to the rebuild.
func TestApplyDeltaTopLChurn(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		s := randomSpace(t, 70+seed, 100, 4, 4)
		ix, err := BuildIndex(s, 25)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2000 + seed))
		top := s.Vals[0] + 1
		d := Delta{
			AppendRows:  [][]string{randomRow(rng, s, 0.5), randomRow(rng, s, 0)},
			AppendVals:  []float64{top, s.Vals[ix.L/2]}, // one new leader, one mid-pack tie
			DeleteRanks: []int{0, ix.L - 1, s.N() - 2},
		}
		nix, stats := applyAndCheck(t, fmt.Sprintf("seed%d", seed), ix, d)
		if stats.FastPath {
			t.Fatalf("top-L churn must take the slow path: %+v", stats)
		}
		if !stats.Repacked || stats.TouchedClusters != nix.NumClusters() || nix.generation == ix.generation {
			t.Fatalf("the slow path must regenerate every cluster: %+v of %d clusters", stats, nix.NumClusters())
		}
	}
}

// TestApplyDeltaChained applies a random mixed batch three times in a row,
// comparing against the cumulative rebuild after every step — the regime a
// live serving session exercises — on the space's own one-word keys
// ("packed") and on the same space padded to two key words ("wide").
func TestApplyDeltaChained(t *testing.T) {
	for i, s := range wideSpaces(t, randomSpace(t, 7, 90, 4, 3)) {
		name := []string{"packed", "wide"}[i]
		t.Run(name, func(t *testing.T) {
			ix, err := BuildIndex(s, 20)
			if err != nil {
				t.Fatal(err)
			}
			words := ix.codec.Words()
			rng := rand.New(rand.NewSource(77))
			for step := 0; step < 3; step++ {
				var d Delta
				for i := 0; i < 5+step*3; i++ {
					d.AppendRows = append(d.AppendRows, randomRow(rng, ix.Space, 0.1))
					// Mix ranks: some appends enter the top L, most do not.
					if i%4 == 0 {
						d.AppendVals = append(d.AppendVals, ix.Space.Vals[0]+rng.Float64())
					} else {
						d.AppendVals = append(d.AppendVals, lowVal(ix, rng.Float64()))
					}
				}
				for _, r := range rng.Perm(ix.Space.N())[:3] {
					d.DeleteRanks = append(d.DeleteRanks, r)
				}
				ix, _ = applyAndCheck(t, fmt.Sprintf("%s/step%d", name, step), ix, d)
				if ix.codec.Words() < words {
					t.Fatalf("step %d: maintained keys shrank from %d to %d words", step, words, ix.codec.Words())
				}
			}
		})
	}
}

// TestApplyDeltaCodecOverflow is the codec-overflow boundary: appending a
// value that pushes an attribute's cardinality past its packed bit width
// must transparently re-derive the codec (wider fields, same one-word keys),
// pinned bit-identical to the rebuild.
func TestApplyDeltaCodecOverflow(t *testing.T) {
	// card 3 packs into a 2-bit field whose all-ones sentinel is 3: ids 0..2
	// fit, a 4th value would collide with Star and must trigger re-packing.
	rng := rand.New(rand.NewSource(5))
	rows := make([][]string, 40)
	vals := make([]float64, 40)
	for i := range rows {
		rows[i] = []string{
			fmt.Sprintf("a%d", rng.Intn(3)),
			fmt.Sprintf("b%d", rng.Intn(3)),
			fmt.Sprintf("c%d", rng.Intn(3)),
		}
		vals[i] = rng.Float64() * 10
	}
	s, err := NewSpace([]string{"x", "y", "z"}, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ix.codec.Words() != 1 || ix.codec.CardFits(0, 4) {
		t.Fatalf("fixture broken: want a one-word index whose attribute 0 field is full at card 3")
	}
	d := Delta{
		AppendRows: [][]string{{"a3", "b0", "c1"}}, // a3 is the overflowing 4th value
		AppendVals: []float64{lowVal(ix, 0)},
	}
	nix, stats := applyAndCheck(t, "overflow", ix, d)
	if !stats.FastPath || !stats.Repacked {
		t.Fatalf("want fast-path re-pack, got %+v", stats)
	}
	if nix.codec.Words() != 1 {
		t.Fatal("re-derived codec should still fit one word")
	}
	// The appended tuple must be covered under the re-derived codec.
	if nix.AllStar().Size() != nix.Space.N() {
		t.Fatalf("all-star covers %d of %d tuples after re-pack", nix.AllStar().Size(), nix.Space.N())
	}
}

// TestApplyDeltaWordOverflow drives the overflow past 64 bits: with every
// field already at capacity in a full word, one more value re-derives a
// two-word codec — still bit-identical to the rebuild (which independently
// derives its own, ghost-value-free widths).
func TestApplyDeltaWordOverflow(t *testing.T) {
	// 16 attributes with 15 values each need 4 bits per field = 64 bits
	// total; growing any attribute to 16 values needs a 5-bit field = 65.
	const m = 16
	rng := rand.New(rand.NewSource(6))
	attrs := make([]string, m)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("g%d", j)
	}
	rows := make([][]string, 30)
	vals := make([]float64, 30)
	for i := range rows {
		row := make([]string, m)
		for j := range row {
			// First 15 rows pin the full 15-value domain per attribute so the
			// codec is at exactly 64 bits.
			if i < 15 {
				row[j] = fmt.Sprintf("v%d_%d", j, i)
			} else {
				row[j] = fmt.Sprintf("v%d_%d", j, rng.Intn(15))
			}
		}
		rows[i] = row
		vals[i] = rng.Float64()
	}
	s, err := NewSpace(attrs, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ix.codec.Words() != 1 {
		t.Fatal("fixture broken: 16x4 bits should pack into one word")
	}
	row := make([]string, m)
	for j := range row {
		row[j] = fmt.Sprintf("v%d_0", j)
	}
	row[3] = "v3_15" // the 16th value of attribute 3: 65 bits
	d := Delta{AppendRows: [][]string{row}, AppendVals: []float64{lowVal(ix, 0)}}
	nix, stats := applyAndCheck(t, "overflow", ix, d)
	if !stats.FastPath || !stats.Repacked {
		t.Fatalf("want fast-path re-pack, got %+v", stats)
	}
	if nix.codec.Words() != 2 {
		t.Fatalf("index keys in %d words after the overflow, want 2", nix.codec.Words())
	}
	if nix.AllStar().Size() != nix.Space.N() {
		t.Fatalf("all-star covers %d of %d tuples after the overflow", nix.AllStar().Size(), nix.Space.N())
	}
}

// TestRebaseReorder drives Rebase with a ranking that reorders kept tuples
// (legal for a caller whose upstream ranking reshuffled ties): sums must be
// re-accumulated in the new order, bit-identical to the rebuild.
func TestRebaseReorder(t *testing.T) {
	rows := [][]string{
		{"a", "x"}, {"b", "x"}, {"a", "y"}, {"b", "y"}, {"c", "x"}, {"c", "y"},
	}
	vals := []float64{5, 4, 3, 3, 3, 1} // a tie block at 3
	s, err := NewSpace([]string{"p", "q"}, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Reorder the tie block 2,3,4 -> 4,2,3 and append one row.
	newRows := [][]string{
		s.Render(s.Tuples[0]), s.Render(s.Tuples[1]),
		s.Render(s.Tuples[4]), s.Render(s.Tuples[2]), s.Render(s.Tuples[3]),
		{"d", "y"},
		s.Render(s.Tuples[5]),
	}
	newVals := []float64{5, 4, 3, 3, 3, 2, 1}
	nix, stats, err := ix.Rebase(newRows, newVals)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FastPath {
		t.Fatalf("prefix 0,1 unchanged: want fast path, got %+v", stats)
	}
	rs, err := NewSpace(s.Attrs, newRows, newVals)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildIndex(rs, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEquivalent(t, "reorder", nix, rebuilt)

	// The rebased space owns its values: a caller recycling its result
	// buffers must not reach the installed index.
	before := nix.AllStar().Sum
	for i := range newVals {
		newVals[i] = -1
	}
	if nix.Space.Vals[0] != 5 || nix.AllStar().Sum != before {
		t.Fatal("Rebase aliased the caller's vals slice")
	}
}

// TestApplyDeltaErrors pins the validation surface.
func TestApplyDeltaErrors(t *testing.T) {
	s := randomSpace(t, 11, 30, 3, 3)
	ix, err := BuildIndex(s, 25)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    Delta
	}{
		{"arity", Delta{AppendRows: [][]string{{"just-one"}}, AppendVals: []float64{1}}},
		{"vals-mismatch", Delta{AppendRows: [][]string{{"a", "b", "c"}}}},
		{"rank-range", Delta{DeleteRanks: []int{s.N()}}},
		{"rank-dup", Delta{DeleteRanks: []int{3, 3}}},
		{"shrink-below-L", Delta{DeleteRanks: []int{0, 1, 2, 3, 4, 5}}},
	}
	for _, tc := range cases {
		if _, _, err := ix.ApplyDelta(tc.d); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	// Rebase-specific: mismatched lengths, arity, and reordered values.
	rows := renderAll(s)
	if _, _, err := ix.Rebase(rows[:s.N()-1], s.Vals); err == nil {
		t.Error("length mismatch: want error")
	}
	short := append([][]string{{"a"}}, rows[1:]...)
	if _, _, err := ix.Rebase(short, s.Vals); err == nil {
		t.Error("arity: want error")
	}
	badVals := append([]float64(nil), s.Vals...)
	badVals[2], badVals[0] = badVals[0], badVals[2]
	if _, _, err := ix.Rebase(rows, badVals); err == nil {
		t.Error("unsorted values: want error")
	}
	if _, _, err := ix.Rebase(rows[:ix.L-1], s.Vals[:ix.L-1]); err == nil {
		t.Error("shrink below L: want error")
	}
}

// TestApplyDeltaCopyOnWrite proves the receiver is never mutated: concurrent
// readers of the old index race against repeated deltas (the serving
// pattern: live summaries over a published index while a refresh builds its
// successor), and afterwards the old index still equals its own rebuild.
func TestApplyDeltaCopyOnWrite(t *testing.T) {
	s := randomSpace(t, 21, 80, 4, 3)
	ix, err := BuildIndex(s, 20)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := int32(rng.Intn(ix.NumClusters()))
				b := int32(rng.Intn(ix.NumClusters()))
				_ = ix.Distance(a, b)
				_ = ix.Covers(a, b)
				if _, ok := ix.Lookup(ix.Cluster(a).Pat); !ok {
					t.Error("published cluster pattern vanished")
					return
				}
			}
		}(int64(w))
	}
	rng := rand.New(rand.NewSource(99))
	cur := ix
	for i := 0; i < 20; i++ {
		d := Delta{
			AppendRows:  [][]string{randomRow(rng, cur.Space, 0.2)},
			AppendVals:  []float64{rng.Float64() * 10},
			DeleteRanks: []int{rng.Intn(cur.Space.N())},
		}
		next, _, err := cur.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	close(stop)
	wg.Wait()
	// The original index must still be bit-identical to its own rebuild.
	rs, err := NewSpace(s.Attrs, renderAll(s), s.Vals)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildIndex(rs, 20)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEquivalent(t, "copy-on-write", ix, rebuilt)
}

// TestApplyDeltaEmpty pins the no-op batch: a fresh index equal to the old
// one (still copy-on-write) with zeroed stats.
func TestApplyDeltaEmpty(t *testing.T) {
	s := randomSpace(t, 31, 40, 3, 3)
	ix, err := BuildIndex(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	var d Delta
	if !d.Empty() {
		t.Fatal("zero Delta should be Empty")
	}
	nix, stats := applyAndCheck(t, "empty", ix, d)
	if !stats.FastPath || stats.TouchedClusters != 0 || stats.Repacked {
		t.Fatalf("no-op stats: %+v", stats)
	}
	assertIndexBitIdentical(t, "empty", nix, ix)
}

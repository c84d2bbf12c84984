package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// testBatch builds one row batch for the three-kind test schema (s text,
// i int, f float).
func testBatch(s []string, i []int64, f []float64) []Column {
	return []Column{StringCol("s", s), IntCol("i", i), FloatCol("f", f)}
}

// rebuilt is the reference Append is checked against: FromColumns over
// private copies of rows, with no history of appends or cached encodings.
func rebuilt(t *testing.T, parts ...[]Column) *Relation {
	t.Helper()
	cols := testBatch(nil, nil, nil)
	for _, p := range parts {
		cols[0].Str = append(cols[0].Str, p[0].Str...)
		cols[1].Int = append(cols[1].Int, p[1].Int...)
		cols[2].Float = append(cols[2].Float, p[2].Float...)
	}
	r, err := FromColumns("t", cols...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// rowsEqual reports whether got holds exactly want's rows; floats compare
// by bit pattern, so NaN payloads and the sign of zero count.
func rowsEqual(got, want *Relation) bool {
	bits := func(f []float64) []uint64 {
		out := make([]uint64, len(f))
		for i, v := range f {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	return got.NumRows() == want.NumRows() &&
		slices.Equal(got.Column(0).Str, want.Column(0).Str) &&
		slices.Equal(got.Column(1).Int, want.Column(1).Int) &&
		slices.Equal(bits(got.Column(2).Float), bits(want.Column(2).Float))
}

func sameRows(t *testing.T, what string, got, want *Relation) {
	t.Helper()
	if !rowsEqual(got, want) {
		t.Fatalf("%s: rows differ from the reference", what)
	}
}

// sameEncodings fails unless every column's DictCodes and CodeGroups of got
// equal, value for value, those of want.
func sameEncodings(t *testing.T, what string, got, want *Relation) {
	t.Helper()
	for c := 0; c < want.NumCols(); c++ {
		gd, wd := got.DictCodes(c), want.DictCodes(c)
		if gd.Card != wd.Card || !slices.Equal(gd.Codes, wd.Codes) {
			t.Fatalf("%s col %d: codes %v card %d, want %v card %d", what, c, gd.Codes, gd.Card, wd.Codes, wd.Card)
		}
		gg, wg := got.CodeGroups(c), want.CodeGroups(c)
		if !slices.Equal(gg.Starts, wg.Starts) || !slices.Equal(gg.Rows, wg.Rows) {
			t.Fatalf("%s col %d: code groups differ from the reference", what, c)
		}
	}
}

// TestAppendSiblingsIsolated pins the sharing rules: the first successor of
// a relation extends its arrays in place, a second successor of the same
// parent copies, neither sees the other's rows, and the parent never
// changes.
func TestAppendSiblingsIsolated(t *testing.T) {
	base := MustFromColumns("t", testBatch([]string{"a", "b", "c"}, []int64{1, 2, 3}, []float64{0.5, 1.5, 2.5})...)
	b0 := testBatch([]string{"d"}, []int64{4}, []float64{3.5})
	parent, err := base.Append(b0)
	if err != nil {
		t.Fatal(err)
	}
	if &parent.Column(0).Str[0] == &base.Column(0).Str[0] {
		t.Fatal("the first append to a FromColumns relation shares the caller's slices")
	}
	parent.DictCodes(0) // inherited by the first successor only
	b1 := testBatch([]string{"x"}, []int64{10}, []float64{-1})
	b2 := testBatch([]string{"y", "a"}, []int64{20, 1}, []float64{-2, 0.5})
	s1, err := parent.Append(b1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := parent.Append(b2)
	if err != nil {
		t.Fatal(err)
	}
	if &s1.Column(0).Str[0] != &parent.Column(0).Str[0] {
		t.Error("the first successor copied the parent's arrays instead of extending them")
	}
	if &s2.Column(0).Str[0] == &parent.Column(0).Str[0] {
		t.Error("a second successor of one parent shares its arrays")
	}
	base0 := testBatch([]string{"a", "b", "c"}, []int64{1, 2, 3}, []float64{0.5, 1.5, 2.5})
	sameRows(t, "base", base, rebuilt(t, base0))
	sameRows(t, "parent", parent, rebuilt(t, base0, b0))
	sameRows(t, "first successor", s1, rebuilt(t, base0, b0, b1))
	sameRows(t, "second successor", s2, rebuilt(t, base0, b0, b2))
	sameEncodings(t, "parent", parent, rebuilt(t, base0, b0))
	sameEncodings(t, "first successor", s1, rebuilt(t, base0, b0, b1))
	sameEncodings(t, "second successor", s2, rebuilt(t, base0, b0, b2))

	if same, err := s1.Append(testBatch(nil, nil, nil)); err != nil || same != s1 {
		t.Errorf("zero-row append = %p, %v; want the receiver", same, err)
	}
	bad := []struct {
		name  string
		batch []Column
	}{
		{"too few columns", testBatch(nil, nil, nil)[:2]},
		{"renamed column", []Column{StringCol("z", []string{"q"}), IntCol("i", []int64{1}), FloatCol("f", []float64{1})}},
		{"wrong kind", []Column{StringCol("s", []string{"q"}), FloatCol("i", []float64{1}), FloatCol("f", []float64{1})}},
		{"ragged", testBatch([]string{"q", "r"}, []int64{1}, []float64{1, 2})},
	}
	for _, tc := range bad {
		if _, err := s1.Append(tc.batch); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

// randomBatch draws n rows from small value pools, so batches mix values
// earlier generations have seen with new ones: empty strings, NaNs with
// distinct payloads, both zeros, infinities.
func randomBatch(rng *rand.Rand, step, n int) []Column {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), nan2, 1.5, math.Inf(1), -2}
	b := testBatch(make([]string, n), make([]int64, n), make([]float64, n))
	for r := 0; r < n; r++ {
		switch k := rng.Intn(8); {
		case k == 0:
			b[0].Str[r] = fmt.Sprintf("new%d.%d", step, r)
			b[1].Int[r] = int64(1000*step + r)
			b[2].Float[r] = float64(step) + float64(r)/8
		default:
			b[0].Str[r] = []string{"", "a", "b", "c"}[rng.Intn(4)]
			b[1].Int[r] = int64(rng.Intn(5) - 2)
			b[2].Float[r] = floats[rng.Intn(len(floats))]
		}
	}
	return b
}

// TestAppendEncodingsMatchRebuild is the seeded property test of inherited
// dictionaries: along random append histories — mostly from the newest
// generation, sometimes a sibling from an older one — with DictCodes and
// CodeGroups built at random points before, between and after the appends,
// every generation's rows, codes and code groups equal those of FromColumns
// over copies of its rows.
func TestAppendEncodingsMatchRebuild(t *testing.T) {
	type gen struct {
		rel   *Relation
		parts [][]Column
	}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		first := randomBatch(rng, 0, rng.Intn(12))
		gens := []gen{{MustFromColumns("t", first...), [][]Column{first}}}
		touch := func() {
			g := gens[rng.Intn(len(gens))].rel
			if col := rng.Intn(3); rng.Intn(2) == 0 {
				g.DictCodes(col)
			} else {
				g.CodeGroups(col)
			}
		}
		for step := 1; step <= 24; step++ {
			for rng.Intn(2) == 0 {
				touch()
			}
			p := gens[len(gens)-1]
			if rng.Intn(4) == 0 {
				p = gens[rng.Intn(len(gens))]
			}
			batch := randomBatch(rng, step, rng.Intn(9))
			next, err := p.rel.Append(batch)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			parts := append(append([][]Column(nil), p.parts...), batch)
			gens = append(gens, gen{next, parts})
		}
		for i, g := range gens {
			want := rebuilt(t, g.parts...)
			what := fmt.Sprintf("seed %d generation %d", seed, i)
			sameRows(t, what, g.rel, want)
			sameEncodings(t, what, g.rel, want)
		}
	}
}

// TestAppendConcurrentSiblings races several appends from one parent
// against a reader of the parent (run with -race): exactly one successor
// extends the parent's arrays in place, each successor holds the parent's
// rows plus its own batch, and the parent reads the same throughout.
func TestAppendConcurrentSiblings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	first := randomBatch(rng, 0, 100)
	base := MustFromColumns("t", first...)
	b0 := randomBatch(rng, 1, 10)
	parent, err := base.Append(b0) // owned arrays with spare capacity
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < parent.NumCols(); c++ {
		parent.DictCodes(c)
	}
	want := rebuilt(t, first, b0)

	const n = 8
	batches := make([][]Column, n)
	for i := range batches {
		batches[i] = randomBatch(rng, 2+i, 1+rng.Intn(4))
	}
	succ := make([]*Relation, n)
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !rowsEqual(parent, want) {
				t.Error("the parent's rows changed during appends")
				return
			}
			for c := 0; c < parent.NumCols(); c++ {
				_ = parent.CodeGroups(c).Rows[parent.NumRows()-1]
			}
		}
	}()
	for i := range succ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			s, err := parent.Append(batches[i])
			if err != nil {
				t.Error(err)
				return
			}
			succ[i] = s
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	inPlace := 0
	for i, s := range succ {
		if &s.Column(0).Str[0] == &parent.Column(0).Str[0] {
			inPlace++
		}
		ref := rebuilt(t, first, b0, batches[i])
		sameRows(t, fmt.Sprintf("successor %d", i), s, ref)
		sameEncodings(t, fmt.Sprintf("successor %d", i), s, ref)
	}
	if inPlace != 1 {
		t.Errorf("%d successors extended the parent's arrays in place, want exactly 1", inPlace)
	}
	sameRows(t, "parent", parent, want)
	sameEncodings(t, "parent", parent, want)
}

// TestExtendsFollowsClaimedAppends pins the lineage check: a relation
// extends itself and every ancestor on its line of first successors, and
// nothing else — not a rebuild from identical columns, not a second
// successor of one parent, not a shorter generation.
func TestExtendsFollowsClaimedAppends(t *testing.T) {
	base := MustFromColumns("t", testBatch([]string{"a", "b"}, []int64{1, 2}, []float64{0.5, 1.5})...)
	first, err := base.Append(testBatch([]string{"c"}, []int64{3}, []float64{2.5}))
	if err != nil {
		t.Fatal(err)
	}
	next, err := first.Append(testBatch([]string{"d"}, []int64{4}, []float64{3.5}))
	if err != nil {
		t.Fatal(err)
	}
	second, err := base.Append(testBatch([]string{"x"}, []int64{9}, []float64{9.5}))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := next.Append(testBatch(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := rebuilt(t, testBatch([]string{"a", "b"}, []int64{1, 2}, []float64{0.5, 1.5}))
	for _, tc := range []struct {
		name      string
		r, prev   *Relation
		extending bool
	}{
		{"itself", base, base, true},
		{"first successor", first, base, true},
		{"successor of the first successor", next, base, true},
		{"successor of the first successor, one back", next, first, true},
		{"empty append", empty, next, true},
		{"ancestor", base, first, false},
		{"second successor", second, base, false},
		{"second successor vs first", second, first, false},
		{"first vs second successor", first, second, false},
		{"rebuilt from the same columns", rebuilt, base, false},
	} {
		if got := tc.r.Extends(tc.prev.Lineage()); got != tc.extending {
			t.Errorf("%s: Extends = %v, want %v", tc.name, got, tc.extending)
		}
	}
}

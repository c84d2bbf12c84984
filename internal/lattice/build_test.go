package lattice

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qagview/internal/pattern"
	"qagview/internal/relation"
)

// assertIndexBitIdentical compares every observable of two indexes: cluster
// ids and patterns, coverage lists, exact value-sum bits, singleton and
// all-star wiring, and the filled coverage length. It fills every cluster
// of both.
func assertIndexBitIdentical(t *testing.T, label string, a, b *Index) {
	t.Helper()
	if a.NumClusters() != b.NumClusters() {
		t.Fatalf("%s: %d clusters vs %d", label, a.NumClusters(), b.NumClusters())
	}
	for i := int32(0); i < int32(a.NumClusters()); i++ {
		ca, cb := a.Cluster(i), b.Cluster(i)
		if ca.ID != cb.ID || !pattern.Equal(ca.Pat, cb.Pat) {
			t.Fatalf("%s: cluster %d is (%d, %v) vs (%d, %v)", label, i, ca.ID, ca.Pat, cb.ID, cb.Pat)
		}
		if len(ca.Cov) != len(cb.Cov) {
			t.Fatalf("%s: cluster %d coverage %d vs %d", label, i, len(ca.Cov), len(cb.Cov))
		}
		for j := range ca.Cov {
			if ca.Cov[j] != cb.Cov[j] {
				t.Fatalf("%s: cluster %d cov[%d] = %d vs %d", label, i, j, ca.Cov[j], cb.Cov[j])
			}
		}
		if math.Float64bits(ca.Sum) != math.Float64bits(cb.Sum) {
			t.Fatalf("%s: cluster %d sum %v (%x) vs %v (%x)",
				label, i, ca.Sum, math.Float64bits(ca.Sum), cb.Sum, math.Float64bits(cb.Sum))
		}
	}
	for rank := 0; rank < a.L; rank++ {
		if a.Singleton(rank).ID != b.Singleton(rank).ID {
			t.Fatalf("%s: singleton %d is %d vs %d", label, rank, a.Singleton(rank).ID, b.Singleton(rank).ID)
		}
	}
	if a.AllStar().ID != b.AllStar().ID {
		t.Fatalf("%s: all-star %d vs %d", label, a.AllStar().ID, b.AllStar().ID)
	}
	if a.CoverageArenaLen() != b.CoverageArenaLen() {
		t.Fatalf("%s: arena %d vs %d", label, a.CoverageArenaLen(), b.CoverageArenaLen())
	}
}

// padSpace returns s with every dictionary padded by unused values up to
// card entries: tuples, ids and values are unchanged, only the packed field
// widths grow, so the same answer set is keyed with more words.
func padSpace(s *Space, card int) *Space {
	dicts := make([]*relation.Dict, len(s.Dicts))
	for j, d := range s.Dicts {
		dicts[j] = d.Clone()
		for i := dicts[j].Len(); i < card; i++ {
			dicts[j].ID(fmt.Sprintf("pad%d_%d", j, i))
		}
	}
	return &Space{Attrs: s.Attrs, Dicts: dicts, Tuples: s.Tuples, Vals: s.Vals}
}

// wideSpaces returns s and its two-word padding: the pair every key-width
// equivalence test runs over.
func wideSpaces(t *testing.T, s *Space) []*Space {
	t.Helper()
	// Fields of 64/m + 1 bits: the m of them overflow one word.
	wide := padSpace(s, 1<<(64/s.M()))
	if w := spaceCodec(wide).Words(); w < 2 {
		t.Fatalf("padded space keys in %d word(s), want at least 2", w)
	}
	if w := spaceCodec(s).Words(); w != 1 {
		t.Fatalf("fixture space keys in %d words, want 1", w)
	}
	return []*Space{s, wide}
}

// TestBuildIndexOneWordMatchesTwoWords pins the key width out of the
// output: the same space built at one key word and again with its
// dictionaries padded to two words must give bit-identical indexes (the key
// width is an encoding change, not a semantic one).
func TestBuildIndexOneWordMatchesTwoWords(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		s := randomSpace(t, 40+seed, 150, 5, 4)
		spaces := wideSpaces(t, s)
		one, ostats, err := BuildIndexStats(spaces[0], 25, true)
		if err != nil {
			t.Fatal(err)
		}
		two, tstats, err := BuildIndexStats(spaces[1], 25, true)
		if err != nil {
			t.Fatal(err)
		}
		if ostats.KeyWords != 1 || tstats.KeyWords != 2 {
			t.Fatalf("key words %d and %d, want 1 and 2", ostats.KeyWords, tstats.KeyWords)
		}
		if ostats.MappingOps != tstats.MappingOps || ostats.Generated != tstats.Generated {
			t.Fatalf("work counters differ: %+v vs %+v", ostats, tstats)
		}
		assertIndexBitIdentical(t, fmt.Sprintf("seed%d", seed), one, two)
	}
}

// TestBuildIndexIdOpsMatchPatternOps: the id-based Distance/Covers accessors
// must agree with the slice pattern algebra at one and two key words.
func TestBuildIndexIdOpsMatchPatternOps(t *testing.T) {
	for _, s := range wideSpaces(t, randomSpace(t, 51, 80, 4, 3)) {
		ix, err := BuildIndex(s, 15)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(52))
		for i := 0; i < 2000; i++ {
			a := int32(rng.Intn(ix.NumClusters()))
			b := int32(rng.Intn(ix.NumClusters()))
			pa, pb := ix.Cluster(a).Pat, ix.Cluster(b).Pat
			if got, want := ix.Distance(a, b), pattern.Distance(pa, pb); got != want {
				t.Fatalf("words=%d Distance(%v, %v) = %d, want %d", ix.codec.Words(), pa, pb, got, want)
			}
			if got, want := ix.Covers(a, b), pa.Covers(pb); got != want {
				t.Fatalf("words=%d Covers(%v, %v) = %v, want %v", ix.codec.Words(), pa, pb, got, want)
			}
		}
	}
}

// TestBuildIndexAttributeBoundary exercises both sides of the shared
// pattern.MaxAttrs bound end to end: a MaxAttrs-wide space builds, one more
// attribute is rejected.
func TestBuildIndexAttributeBoundary(t *testing.T) {
	row := make([]string, pattern.MaxAttrs)
	for j := range row {
		row[j] = "v"
	}
	s, err := NewSpace(attrNames(pattern.MaxAttrs), [][]string{row}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(s, 1)
	if err != nil {
		t.Fatalf("m = MaxAttrs should build: %v", err)
	}
	if want := 1 << pattern.MaxAttrs; ix.NumClusters() != want {
		t.Fatalf("m = MaxAttrs generated %d clusters, want %d", ix.NumClusters(), want)
	}

	wideRow := make([]string, pattern.MaxAttrs+1)
	for j := range wideRow {
		wideRow[j] = "v"
	}
	wide, err := NewSpace(attrNames(pattern.MaxAttrs+1), [][]string{wideRow}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndex(wide, 1); err == nil {
		t.Fatal("m = MaxAttrs+1 should be rejected")
	}
}

// TestBuildStatsPhases sanity-checks BuildStats: every phase is timed, and
// each path counts its own coverage work — N·m posting bits on demand,
// |C|·N probes naively.
func TestBuildStatsPhases(t *testing.T) {
	s := randomSpace(t, 53, 120, 4, 3)
	for _, optimized := range []bool{true, false} {
		ix, st, err := BuildIndexStats(s, 20, optimized)
		if err != nil {
			t.Fatal(err)
		}
		if !(st.GenerateMs > 0 && st.MapMs > 0 && st.AssembleMs > 0) {
			t.Errorf("optimized=%v: phase timings %+v", optimized, st)
		}
		want := s.N() * s.M()
		if !optimized {
			want = s.N() * ix.NumClusters()
		}
		if st.MappingOps != want {
			t.Errorf("optimized=%v: MappingOps = %d, want %d", optimized, st.MappingOps, want)
		}
	}
}

package summarize

import (
	"fmt"
	"math/rand"
	"testing"

	"qagview/internal/lattice"
)

// naiveTwin builds the naive index over ix's space and L: every cluster
// filled at build by the cluster-major scan, the equivalence oracle of the
// on-demand index.
func naiveTwin(t *testing.T, ix *lattice.Index) *lattice.Index {
	t.Helper()
	nv, err := lattice.BuildIndexNaive(ix.Space, ix.L)
	if err != nil {
		t.Fatal(err)
	}
	return nv
}

// TestOnDemandIndexMatchesNaive runs every algorithm and the sweeper on a
// fresh on-demand index and on the naive index of the same space: every
// solution and every sweep trace must be bit-identical.
func TestOnDemandIndexMatchesNaive(t *testing.T) {
	fixtures := []struct {
		name   string
		ix     *lattice.Index
		params []Params
	}{
		{"synthetic", randomIndex(t, 905, 150, 5, 3, 30), []Params{
			{K: 1, L: 10, D: 0}, {K: 4, L: 30, D: 2}, {K: 8, L: 15, D: 3}, {K: 25, L: 30, D: 1},
		}},
		{"movielens", movieLensIndex(t, 6, 5, 150), []Params{
			{K: 10, L: 150, D: 2}, {K: 5, L: 75, D: 3},
		}},
	}
	for _, f := range fixtures {
		nv := naiveTwin(t, f.ix)
		for _, p := range f.params {
			for _, algo := range equivalenceAlgos {
				// Each run gets a fresh on-demand index, so every run fills
				// from nothing.
				lazy, err := lattice.BuildIndex(f.ix.Space, f.ix.L)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/%s/%+v", f.name, algo, p)
				got, err := Run(algo, lazy, p, WithRand(rand.New(rand.NewSource(7))))
				if err != nil {
					t.Fatalf("%s: on demand: %v", label, err)
				}
				want, err := Run(algo, nv, p, WithRand(rand.New(rand.NewSource(7))))
				if err != nil {
					t.Fatalf("%s: naive: %v", label, err)
				}
				assertBitIdentical(t, label, got, want)
			}
		}
		lazy, err := lattice.BuildIndex(f.ix.Space, f.ix.L)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := NewSweeper(lazy, lazy.L, 12)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewSweeper(nv, nv.L, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, D := range []int{0, 1, 2, 3} {
			got, err := sw.RunD(D, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.RunD(D, 1)
			if err != nil {
				t.Fatal(err)
			}
			assertTracesEqual(t, fmt.Sprintf("%s/sweep D=%d", f.name, D), got, want)
		}
	}
}

// TestWarmStatesFollowTheirSweeper pins the replay-state ownership: the
// states a sweeper's replays returned move to its warm successor, rebound
// to the successor's index, and the old sweeper keeps none.
func TestWarmStatesFollowTheirSweeper(t *testing.T) {
	ix := randomIndex(t, 31, 100, 4, 4, 20)
	sw, err := NewSweeper(ix, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, D := range []int{1, 2} {
		if _, err := sw.RunD(D, 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(sw.free) == 0 {
		t.Fatal("replays returned no state to the free list")
	}
	nix, _ := applyRandomDelta(t, ix, 5, false)
	nw, err := sw.Warm(nix, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.free) != 0 || len(nw.free) == 0 {
		t.Fatalf("free lists after Warm: old %d, new %d", len(sw.free), len(nw.free))
	}
	for _, st := range nw.free {
		if st.ws.ix != nix {
			t.Fatal("a migrated replay state still points at the old index")
		}
	}
	if _, err := nw.RunD(1, 1); err != nil {
		t.Fatal(err)
	}
	if st := nw.Stats(); st.PooledReuses != 1 {
		t.Fatalf("warm replay reused %d states, want 1", st.PooledReuses)
	}
}

package lattice_test

import (
	"testing"

	"qagview"
	"qagview/internal/lattice"
	"qagview/internal/movielens"
	"qagview/internal/precompute"
	"qagview/internal/summarize"
)

// TestFillsFollowTheAlgorithms pins the on-demand cluster space's cost
// claim on a MovieLens m = 8 session: building it fills no cluster, and one
// Hybrid run plus a full (k 1–40, D 1–3) precompute fill at most 15% of the
// generated clusters. Every filled cluster must be one the algorithms were
// handed: the singleton of a top-L tuple, or the LCA of two other filled
// clusters (the only ways Hybrid and the sweeps reach a cluster).
func TestFillsFollowTheAlgorithms(t *testing.T) {
	rel, err := movielens.Generate(movielens.Config{Users: 300, Movies: 400, Ratings: 40_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	db := qagview.NewDB()
	if err := db.Register(rel); err != nil {
		t.Fatal(err)
	}
	sql, err := movielens.Query(8, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	L := min(500, res.N())
	sum, err := qagview.NewSummarizer(res, L)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ClustersFilled() != 0 {
		t.Fatalf("a fresh summarizer filled %d clusters", sum.ClustersFilled())
	}
	space, err := lattice.NewSpace(res.GroupBy, res.Rows, res.Vals)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := lattice.BuildIndex(space, L)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := summarize.Hybrid(ix, summarize.Params{K: 10, L: L, D: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := precompute.Run(ix, L, 1, 40, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	filled, nc := ix.FilledClusters(), ix.NumClusters()
	t.Logf("N = %d, L = %d: %d of %d clusters filled (%.1f%%)", space.N(), L, filled, nc, 100*float64(filled)/float64(nc))
	if nc < 5000 {
		t.Fatalf("fixture too small to pin anything: %d clusters", nc)
	}
	if filled*100 > 15*nc {
		t.Fatalf("%d of %d clusters filled, more than 15%%", filled, nc)
	}
	ids := ix.FilledIDs()
	if len(ids) != filled {
		t.Fatalf("%d filled records, counter says %d", len(ids), filled)
	}
	reached := make(map[int32]bool, len(ids))
	for rank := 0; rank < L; rank++ {
		reached[ix.SingletonID(rank)] = true
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if id, err := ix.LCAID(a, b); err == nil && id != a && id != b {
				reached[id] = true
			}
		}
	}
	for _, id := range ids {
		if !reached[id] {
			t.Fatalf("cluster %d was filled but is neither a top-L singleton nor the LCA of two filled clusters", id)
		}
	}
}

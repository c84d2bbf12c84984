package sankey

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qagview/internal/lattice"
	"qagview/internal/summarize"
)

func solutions(t *testing.T, seed int64) (*lattice.Index, *summarize.Solution, *summarize.Solution) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]string, 0, 80)
	vals := make([]float64, 0, 80)
	seen := map[string]bool{}
	for len(rows) < 80 {
		row := make([]string, 4)
		key := ""
		boost := 0.0
		for j := range row {
			v := rng.Intn(4)
			row[j] = fmt.Sprintf("v%d_%d", j, v)
			key += row[j]
			if v == 0 && j < 2 {
				boost++
			}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, row)
		vals = append(vals, rng.Float64()+boost)
	}
	s, err := lattice.NewSpace([]string{"a", "b", "c", "d"}, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := lattice.BuildIndex(s, 20)
	if err != nil {
		t.Fatal(err)
	}
	oldSol, err := summarize.Hybrid(ix, summarize.Params{K: 5, L: 20, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	newSol, err := summarize.Hybrid(ix, summarize.Params{K: 4, L: 20, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ix, oldSol, newSol
}

func TestNewDiffOverlaps(t *testing.T) {
	ix, oldSol, newSol := solutions(t, 1)
	d, err := NewDiff(ix, oldSol, newSol, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.M) != oldSol.Size() || len(d.M[0]) != newSol.Size() {
		t.Fatalf("M shape = %dx%d", len(d.M), len(d.M[0]))
	}
	// Overlap counts are bounded by the smaller coverage and symmetric in
	// definition: recompute one cell naively.
	for i, a := range d.Left {
		for j, b := range d.Right {
			want := 0
			in := map[int32]bool{}
			for _, tt := range a.Cov {
				in[tt] = true
			}
			for _, tt := range b.Cov {
				if in[tt] {
					want++
				}
			}
			if d.M[i][j] != want {
				t.Fatalf("M[%d][%d] = %d, want %d", i, j, d.M[i][j], want)
			}
		}
	}
	for i, c := range d.Left {
		if d.LeftTop[i] > c.Size() {
			t.Errorf("LeftTop[%d] = %d exceeds coverage %d", i, d.LeftTop[i], c.Size())
		}
	}
}

func TestNewDiffRejectsEmpty(t *testing.T) {
	ix, oldSol, _ := solutions(t, 2)
	if _, err := NewDiff(ix, oldSol, &summarize.Solution{}, 20); err == nil {
		t.Error("empty new solution accepted")
	}
	if _, err := NewDiff(ix, nil, oldSol, 20); err == nil {
		t.Error("nil old solution accepted")
	}
}

func TestOptimalOrderMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		ix, oldSol, newSol := solutions(t, seed)
		d, err := NewDiff(ix, oldSol, newSol, 20)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := d.OptimalOrder()
		if err != nil {
			t.Fatal(err)
		}
		bf, err := d.BruteForceOrder()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.TotalDistance(opt), d.TotalDistance(bf); got != want {
			t.Errorf("seed %d: hungarian distance %d != brute force %d", seed, got, want)
		}
		// Placement must be a permutation.
		seen := make([]bool, len(opt))
		for _, p := range opt {
			if p < 0 || p >= len(opt) || seen[p] {
				t.Fatalf("seed %d: invalid placement %v", seed, opt)
			}
			seen[p] = true
		}
	}
}

func TestOptimalNeverWorseThanDefault(t *testing.T) {
	for seed := int64(10); seed < 20; seed++ {
		ix, oldSol, newSol := solutions(t, seed)
		d, err := NewDiff(ix, oldSol, newSol, 20)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := d.OptimalOrder()
		if err != nil {
			t.Fatal(err)
		}
		if d.TotalDistance(opt) > d.TotalDistance(d.DefaultOrder()) {
			t.Errorf("seed %d: optimal placement worse than default", seed)
		}
	}
}

func TestCrossingsCountsInversions(t *testing.T) {
	// Hand-built diff: two left clusters, two right clusters, bands on the
	// diagonal and anti-diagonal.
	d := &Diff{
		Left:  make([]*lattice.Cluster, 2),
		Right: make([]*lattice.Cluster, 2),
		M:     [][]int{{1, 1}, {0, 1}},
	}
	straight := []int{0, 1}
	flipped := []int{1, 0}
	if got := d.Crossings(straight); got != 0 {
		t.Errorf("straight crossings = %d, want 0", got)
	}
	// Flipping positions makes band (0,0)->pos1 cross band (1,1)->pos0.
	if got := d.Crossings(flipped); got == 0 {
		t.Error("flipped placement should cross")
	}
	if d.TotalDistance(straight) >= d.TotalDistance(flipped) {
		// With this M the straight order has distance 1 vs flipped 2.
		t.Errorf("distances: straight %d flipped %d", d.TotalDistance(straight), d.TotalDistance(flipped))
	}
}

func TestBruteForceLimit(t *testing.T) {
	d := &Diff{Left: make([]*lattice.Cluster, 1), Right: make([]*lattice.Cluster, 10), M: make([][]int, 1)}
	d.M[0] = make([]int, 10)
	if _, err := d.BruteForceOrder(); err == nil {
		t.Error("10-cluster brute force accepted")
	}
}

func TestHeightLayoutCentersConsistent(t *testing.T) {
	ix, oldSol, newSol := solutions(t, 30)
	d, err := NewDiff(ix, oldSol, newSol, 20)
	if err != nil {
		t.Fatal(err)
	}
	order := d.DefaultOrder()
	// The objective must be permutation-sensitive and non-negative.
	if d.HeightDistance(order) < 0 {
		t.Fatal("negative height distance")
	}
}

func TestBarycenterHeightOrderIsPermutation(t *testing.T) {
	for seed := int64(31); seed < 41; seed++ {
		ix, oldSol, newSol := solutions(t, seed)
		d, err := NewDiff(ix, oldSol, newSol, 20)
		if err != nil {
			t.Fatal(err)
		}
		order := d.BarycenterHeightOrder()
		seen := make([]bool, len(order))
		for _, p := range order {
			if p < 0 || p >= len(order) || seen[p] {
				t.Fatalf("seed %d: invalid permutation %v", seed, order)
			}
			seen[p] = true
		}
		// The heuristic must never be worse than the exact optimum, and the
		// exact optimum must not beat itself.
		exact, err := d.BruteForceHeightOrder()
		if err != nil {
			t.Fatal(err)
		}
		if d.HeightDistance(exact) > d.HeightDistance(order)+1e-9 {
			t.Fatalf("seed %d: exact (%v) worse than heuristic (%v)",
				seed, d.HeightDistance(exact), d.HeightDistance(order))
		}
	}
}

func TestBarycenterFindsObviousOptimum(t *testing.T) {
	// Two equal-height clusters per side with diagonal bands: identity order
	// is optimal and the barycenter heuristic must find it.
	mk := func(size int) *lattice.Cluster {
		cov := make([]int32, size)
		for i := range cov {
			cov[i] = int32(i)
		}
		return &lattice.Cluster{Cov: cov}
	}
	d := &Diff{
		Left:  []*lattice.Cluster{mk(4), mk(4)},
		Right: []*lattice.Cluster{mk(4), mk(4)},
		M:     [][]int{{5, 0}, {0, 5}},
	}
	order := d.BarycenterHeightOrder()
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("barycenter order = %v, want identity", order)
	}
	exact, err := d.BruteForceHeightOrder()
	if err != nil {
		t.Fatal(err)
	}
	if d.HeightDistance(order) != d.HeightDistance(exact) {
		t.Fatalf("heuristic %v != exact %v on diagonal instance",
			d.HeightDistance(order), d.HeightDistance(exact))
	}
}

func TestBruteForceHeightLimit(t *testing.T) {
	d := &Diff{Left: make([]*lattice.Cluster, 1), Right: make([]*lattice.Cluster, 10), M: make([][]int, 1)}
	d.M[0] = make([]int, 10)
	if _, err := d.BruteForceHeightOrder(); err == nil {
		t.Error("10-cluster height brute force accepted")
	}
}

func TestFreeClustersGoLast(t *testing.T) {
	mk := func(size int) *lattice.Cluster {
		cov := make([]int32, size)
		for i := range cov {
			cov[i] = int32(i)
		}
		return &lattice.Cluster{Cov: cov}
	}
	// Right cluster 0 has no bands; cluster 1 connects to left 0.
	d := &Diff{
		Left:  []*lattice.Cluster{mk(3)},
		Right: []*lattice.Cluster{mk(3), mk(3)},
		M:     [][]int{{0, 2}},
	}
	order := d.BarycenterHeightOrder()
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("bandless cluster not placed last: %v", order)
	}
}

// TestDiffOnDemandMatchesNaive builds the same comparison over an on-demand
// index and over the naive index of its space: the overlap matrix and the
// top-tuple counts must be identical.
func TestDiffOnDemandMatchesNaive(t *testing.T) {
	ix, _, _ := solutions(t, 3)
	nv, err := lattice.BuildIndexNaive(ix.Space, ix.L)
	if err != nil {
		t.Fatal(err)
	}
	var diffs [2]*Diff
	for i, x := range []*lattice.Index{ix, nv} {
		oldSol, err := summarize.Hybrid(x, summarize.Params{K: 6, L: 20, D: 1})
		if err != nil {
			t.Fatal(err)
		}
		newSol, err := summarize.Hybrid(x, summarize.Params{K: 3, L: 20, D: 2})
		if err != nil {
			t.Fatal(err)
		}
		if diffs[i], err = NewDiff(x, oldSol, newSol, 20); err != nil {
			t.Fatal(err)
		}
	}
	a, b := diffs[0], diffs[1]
	if !reflect.DeepEqual(a.M, b.M) || !reflect.DeepEqual(a.LeftTop, b.LeftTop) || !reflect.DeepEqual(a.RightTop, b.RightTop) {
		t.Fatalf("diffs differ: %+v vs %+v", a, b)
	}
	for i := range a.Left {
		if a.Left[i].ID != b.Left[i].ID {
			t.Fatalf("left cluster %d: %d vs %d", i, a.Left[i].ID, b.Left[i].ID)
		}
	}
	for j := range a.Right {
		if a.Right[j].ID != b.Right[j].ID {
			t.Fatalf("right cluster %d: %d vs %d", j, a.Right[j].ID, b.Right[j].ID)
		}
	}
}

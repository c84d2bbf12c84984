package delta

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qagview/internal/engine"
	"qagview/internal/lattice"
	"qagview/internal/movielens"
	"qagview/internal/precompute"
	"qagview/internal/relation"
	"qagview/internal/summarize"
)

func buildIndex(t testing.TB, attrs []string, rows [][]string, vals []float64, L int) *lattice.Index {
	t.Helper()
	s, err := lattice.NewSpace(attrs, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := lattice.BuildIndex(s, L)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func randomRows(rng *rand.Rand, n, m, dom int) ([][]string, []float64) {
	rows := make([][]string, 0, n)
	vals := make([]float64, 0, n)
	seen := map[string]bool{}
	for len(rows) < n {
		row := make([]string, m)
		key := ""
		boost := 0.0
		for j := range row {
			v := rng.Intn(dom)
			row[j] = fmt.Sprintf("v%d_%d", j, v)
			key += row[j] + "|"
			if v == 0 && j < 2 {
				boost++
			}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, row)
		vals = append(vals, rng.Float64()*3+boost)
	}
	return rows, vals
}

func attrNames(m int) []string {
	attrs := make([]string, m)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("A%d", j)
	}
	return attrs
}

// renderSolution canonicalizes a solution for cross-encoding comparison:
// rendered patterns with exact average bits and covered ranks.
func renderSolution(s *lattice.Space, sol *summarize.Solution) string {
	out := ""
	for _, c := range sol.Clusters {
		out += fmt.Sprintf("%v avg=%x cov=%v\n", s.Render(c.Pat), math.Float64bits(c.Avg()), c.Cov)
	}
	out += fmt.Sprintf("covered=%v sum=%x", sol.Covered, math.Float64bits(sol.Sum))
	return out
}

// assertStoresEqual compares two stores cell by cell over their full grid:
// solution renderings and guidance series, bit for bit.
func assertStoresEqual(t *testing.T, label string, got, want *precompute.Store, gs, ws *lattice.Space) {
	t.Helper()
	if got.KMin != want.KMin || got.KMax != want.KMax || !reflect.DeepEqual(got.Ds, want.Ds) {
		t.Fatalf("%s: grid (%d..%d %v) vs (%d..%d %v)", label, got.KMin, got.KMax, got.Ds, want.KMin, want.KMax, want.Ds)
	}
	for _, d := range want.Ds {
		for k := want.KMin; k <= want.KMax; k++ {
			wsol, werr := want.Solution(k, d)
			gsol, gerr := got.Solution(k, d)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: k=%d d=%d error %v vs %v", label, k, d, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if renderSolution(gs, gsol) != renderSolution(ws, wsol) {
				t.Fatalf("%s: k=%d d=%d solutions differ:\n%s\nvs\n%s",
					label, k, d, renderSolution(gs, gsol), renderSolution(ws, wsol))
			}
		}
	}
	gg, wg := got.Guidance(), want.Guidance()
	if !reflect.DeepEqual(gg.MinSizes, wg.MinSizes) {
		t.Fatalf("%s: min sizes %v vs %v", label, gg.MinSizes, wg.MinSizes)
	}
	for d, series := range wg.Series {
		for i := range series {
			if math.Float64bits(gg.Series[d][i]) != math.Float64bits(series[i]) {
				t.Fatalf("%s: guidance D=%d k-offset %d: %v vs %v", label, d, i, gg.Series[d][i], series[i])
			}
		}
	}
}

// TestMaintainerMatchesRebuild chains refreshes over a synthetic answer set
// — appends below the top L, value changes, deletes, and a new leader — and
// after every generation proves the maintained state equals a cold rebuild:
// the precomputed store over the full grid, and every greedy algorithm's
// solution, bit for bit.
func TestMaintainerMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const m, L, kMax = 4, 25, 8
	attrs := attrNames(m)
	rows, vals := randomRows(rng, 100, m, 4)
	ix := buildIndex(t, attrs, rows, vals, L)
	mt := New(ix)
	if mt.Generation() != 1 {
		t.Fatalf("fresh generation = %d", mt.Generation())
	}
	ds := []int{1, 2}
	curRows, curVals := rows, vals
	for step := 0; step < 3; step++ {
		// Perturb the answer set: drop two rows, change one value, add three
		// rows (one leading the ranking on the last step).
		next := make([][]string, 0, len(curRows)+3)
		nextVals := make([]float64, 0, len(curVals)+3)
		for i := range curRows {
			if i == 7 || i == len(curRows)-1 {
				continue
			}
			v := curVals[i]
			if i == 12 {
				v += 0.25
			}
			next = append(next, curRows[i])
			nextVals = append(nextVals, v)
		}
		add, addVals := randomRows(rng, 3, m, 4)
		for i := range add {
			add[i][0] = fmt.Sprintf("s%d_%d", step, i) // force fresh vocabulary
			if step == 2 && i == 0 {
				addVals[i] = 99 // new leader: top-L churn
			}
		}
		next = append(next, add...)
		nextVals = append(nextVals, addVals...)

		stats, changed, err := mt.Refresh(next, nextVals)
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			t.Fatalf("step %d: refresh saw no change", step)
		}
		if wantGen := uint64(step + 2); mt.Generation() != wantGen {
			t.Fatalf("step %d: generation %d, want %d", step, mt.Generation(), wantGen)
		}
		if step == 2 && stats.FastPath {
			t.Fatal("a new leader must churn the top L")
		}

		cold := buildIndex(t, attrs, next, nextVals, L)
		warmStore, err := mt.Precompute(1, kMax, ds)
		if err != nil {
			t.Fatal(err)
		}
		if warmStore.Generation() != mt.Generation() {
			t.Fatalf("store generation %d vs maintainer %d", warmStore.Generation(), mt.Generation())
		}
		coldStore, err := precompute.Run(cold, L, 1, kMax, ds)
		if err != nil {
			t.Fatal(err)
		}
		assertStoresEqual(t, fmt.Sprintf("step%d", step), warmStore, coldStore, mt.Index().Space, cold.Space)

		for _, algo := range []summarize.Algorithm{summarize.AlgoBottomUp, summarize.AlgoFixedOrder, summarize.AlgoHybrid} {
			p := summarize.Params{K: 5, L: L, D: 2}
			wsol, err := summarize.Run(algo, mt.Index(), p)
			if err != nil {
				t.Fatal(err)
			}
			csol, err := summarize.Run(algo, cold, p)
			if err != nil {
				t.Fatal(err)
			}
			if renderSolution(mt.Index().Space, wsol) != renderSolution(cold.Space, csol) {
				t.Fatalf("step %d: %s solutions differ", step, algo)
			}
		}
		// The maintained ranking must itself match the cold space's ranking.
		for i, tup := range mt.Index().Space.Tuples {
			if !reflect.DeepEqual(mt.Index().Space.Render(tup), cold.Space.Render(cold.Space.Tuples[i])) {
				t.Fatalf("step %d: rank %d rows differ", step, i)
			}
		}
		curRows, curVals = next, nextVals
	}
	// An identical refresh is a no-op that keeps the generation.
	gen := mt.Generation()
	if _, changed, err := mt.Refresh(curRows, curVals); err != nil || changed {
		t.Fatalf("no-op refresh: changed=%v err=%v", changed, err)
	}
	if mt.Generation() != gen {
		t.Fatalf("no-op refresh bumped the generation to %d", mt.Generation())
	}
}

// catalog is a minimal engine.Catalog over named relations.
type catalog map[string]*relation.Relation

func (c catalog) Table(name string) (*relation.Relation, error) {
	r, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	return r, nil
}

// appendRatings returns a copy of the MovieLens table with extra rating rows
// cloned from existing ones (ratings bumped to 5), which shifts group
// averages, group counts, and HAVING membership — the realistic base-table
// write a live service absorbs.
func appendRatings(t *testing.T, rel *relation.Relation, rng *rand.Rand, n int) *relation.Relation {
	t.Helper()
	cols := make([]relation.Column, rel.NumCols())
	for ci := 0; ci < rel.NumCols(); ci++ {
		src := rel.Column(ci)
		c := relation.Column{Name: src.Name, Kind: src.Kind}
		switch src.Kind {
		case relation.KindString:
			c.Str = append(append([]string(nil), src.Str...), make([]string, n)...)
		case relation.KindInt:
			c.Int = append(append([]int64(nil), src.Int...), make([]int64, n)...)
		case relation.KindFloat:
			c.Float = append(append([]float64(nil), src.Float...), make([]float64, n)...)
		}
		cols[ci] = c
	}
	base := rel.NumRows()
	ratingCol := rel.ColumnIndex("rating")
	if ratingCol < 0 || cols[ratingCol].Kind != relation.KindFloat {
		t.Fatal("fixture: no float rating column")
	}
	for i := 0; i < n; i++ {
		donor := rng.Intn(base)
		for ci := range cols {
			switch cols[ci].Kind {
			case relation.KindString:
				cols[ci].Str[base+i] = cols[ci].Str[donor]
			case relation.KindInt:
				cols[ci].Int[base+i] = cols[ci].Int[donor]
			case relation.KindFloat:
				cols[ci].Float[base+i] = cols[ci].Float[donor]
			}
		}
		cols[ratingCol].Float[base+i] = 5
	}
	out, err := relation.FromColumns(rel.Name(), cols...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMaintainerMovieLens is the end-to-end MovieLens equivalence: append
// base rows to the rating table, re-run the aggregate query, refresh the
// maintainer, and prove the maintained index and store equal a cold rebuild
// over the new result.
func TestMaintainerMovieLens(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel, err := movielens.Generate(movielens.Config{Users: 300, Movies: 400, Ratings: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sql, err := movielens.Query(4, 30, "")
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog{rel.Name(): rel}
	res, err := engine.ExecuteSQL(cat, sql)
	if err != nil {
		t.Fatal(err)
	}
	L := 60
	if res.N() < L {
		L = res.N()
	}
	ix := buildIndex(t, res.GroupBy, res.Rows, res.Vals, L)
	mt := New(ix)
	if _, err := mt.Precompute(1, 6, []int{1, 2}); err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 2; step++ {
		rel = appendRatings(t, rel, rng, 400)
		cat[rel.Name()] = rel
		res, err = engine.ExecuteSQL(cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		_, changed, err := mt.Refresh(res.Rows, res.Vals)
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			t.Fatalf("step %d: 400 appended ratings changed nothing", step)
		}
		cold := buildIndex(t, res.GroupBy, res.Rows, res.Vals, L)
		warmStore, err := mt.Precompute(1, 6, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		coldStore, err := precompute.Run(cold, L, 1, 6, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		assertStoresEqual(t, fmt.Sprintf("movielens-step%d", step), warmStore, coldStore, mt.Index().Space, cold.Space)
	}
}

// assertIndexEqual fails unless got and want hold the same ranking and the
// same clusters under the same ids: rendered patterns, coverage lists and
// value sums, bit for bit, and the same singleton and all-star ids.
func assertIndexEqual(t *testing.T, label string, got, want *lattice.Index) {
	t.Helper()
	gs, ws := got.Space, want.Space
	if gs.N() != ws.N() || got.NumClusters() != want.NumClusters() {
		t.Fatalf("%s: %d tuples / %d clusters, want %d / %d", label, gs.N(), got.NumClusters(), ws.N(), want.NumClusters())
	}
	for i := range gs.Tuples {
		if !reflect.DeepEqual(gs.Render(gs.Tuples[i]), ws.Render(ws.Tuples[i])) || math.Float64bits(gs.Vals[i]) != math.Float64bits(ws.Vals[i]) {
			t.Fatalf("%s: rank %d differs", label, i)
		}
	}
	for id := 0; id < want.NumClusters(); id++ {
		g, w := got.Cluster(int32(id)), want.Cluster(int32(id))
		if !reflect.DeepEqual(gs.Render(g.Pat), ws.Render(w.Pat)) || !reflect.DeepEqual(g.Cov, w.Cov) || math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
			t.Fatalf("%s: cluster %d differs", label, id)
		}
	}
	for rank := 0; rank < want.L; rank++ {
		if got.Singleton(rank).ID != want.Singleton(rank).ID {
			t.Fatalf("%s: singleton %d is cluster %d, want %d", label, rank, got.Singleton(rank).ID, want.Singleton(rank).ID)
		}
	}
	if got.L != want.L || got.AllStar().ID != want.AllStar().ID {
		t.Fatalf("%s: L %d all-star %d, want %d and %d", label, got.L, got.AllStar().ID, want.L, want.AllStar().ID)
	}
}

// TestFoldRefreshDeferredWarm drives the maintainer the way a live session
// does: appended MovieLens ratings are folded into the engine's retained
// aggregation, and every fold's result goes to RefreshCtx, which must find
// a change exactly when the fold reported one. After every refresh the
// index must equal a cold NewSpace + BuildIndex over a full query; stores
// are precomputed only every other step, so one deferred warm covers two
// refreshes, and each store must equal a cold precompute.
func TestFoldRefreshDeferredWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel, err := movielens.Generate(movielens.Config{Users: 300, Movies: 400, Ratings: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sql, err := movielens.Query(4, 30, "")
	if err != nil {
		t.Fatal(err)
	}
	q, err := engine.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, kept, err := engine.Retain(catalog{rel.Name(): rel}, q)
	if err != nil || kept == nil {
		t.Fatalf("Retain: kept=%v err=%v", kept, err)
	}
	L := min(60, res.N())
	mt := New(buildIndex(t, res.GroupBy, res.Rows, res.Vals, L))
	// The session's first refresh is a rescan: align the maintainer's
	// ranking with the retained output, as a session's first refresh does.
	if _, _, err := mt.Refresh(res.Rows, res.Vals); err != nil {
		t.Fatal(err)
	}
	if _, err := mt.Precompute(1, 6, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	folds, fast, slow := 0, 0, 0
	for step := 0; step < 6; step++ {
		batch := make([]relation.Column, rel.NumCols())
		donors := make([]int, 40)
		for i := range donors {
			donors[i] = rng.Intn(rel.NumRows())
		}
		for ci := range batch {
			src := rel.Column(ci)
			c := relation.Column{Name: src.Name, Kind: src.Kind}
			for _, d := range donors {
				switch src.Kind {
				case relation.KindString:
					c.Str = append(c.Str, src.Str[d])
				case relation.KindInt:
					c.Int = append(c.Int, src.Int[d])
				case relation.KindFloat:
					v := src.Float[d]
					if src.Name == "rating" && step%2 == 1 {
						v = 5 // lift averages: top-L churn
					}
					c.Float = append(c.Float, v)
				}
			}
			batch[ci] = c
		}
		if rel, err = rel.Append(batch); err != nil {
			t.Fatal(err)
		}
		cat := catalog{rel.Name(): rel}
		f, ok, err := kept.Fold(cat)
		if err != nil || !ok {
			t.Fatalf("step %d: fold ok=%v err=%v", step, ok, err)
		}
		want, err := engine.Execute(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		stats, changed, err := mt.RefreshCtx(context.Background(), f.Result.Rows, f.Result.Vals)
		if err != nil || changed != f.Changed {
			t.Fatalf("step %d: refresh changed=%v err=%v, the fold reported changed=%v", step, changed, err, f.Changed)
		}
		if changed {
			folds++
			if stats.FastPath {
				fast++
			} else {
				slow++
			}
		}
		cold := buildIndex(t, want.GroupBy, want.Rows, want.Vals, L)
		assertIndexEqual(t, fmt.Sprintf("step %d", step), mt.Index(), cold)
		if step%2 == 1 {
			warmStore, err := mt.Precompute(1, 6, []int{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			coldStore, err := precompute.Run(cold, L, 1, 6, []int{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			assertStoresEqual(t, fmt.Sprintf("step %d", step), warmStore, coldStore, mt.Index().Space, cold.Space)
		}
	}
	if folds == 0 || slow == 0 {
		t.Fatalf("history refreshed %d times (%d fast, %d slow); want changed folds with top-L churn", folds, fast, slow)
	}
}

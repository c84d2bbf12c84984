package exp

import (
	"fmt"
	"runtime"

	"qagview"
	"qagview/internal/lattice"
)

// singleRun measures the non-precomputed path: initialization (cluster space
// build) plus one Hybrid run for (k, L, D). It returns (init ms, algo ms).
func singleRun(e *Env, res *qagview.Result, k, L, D int) (float64, float64, error) {
	t0 := startTimer()
	s, err := qagview.NewSummarizer(res, L)
	if err != nil {
		return 0, 0, err
	}
	initMs := t0.ms()
	t1 := startTimer()
	p := qagview.Params{K: k, L: L, D: D}
	if _, err := s.Summarize(qagview.Hybrid, p); err != nil {
		return 0, 0, err
	}
	return initMs, t1.ms(), nil
}

// precomputeRun measures the precomputed path: initialization, the sweep
// over k in [1, kMax] for the given D, and one retrieval. It returns
// (init ms, sweep ms, retrieval ms).
func precomputeRun(e *Env, res *qagview.Result, kMax, L, D int) (float64, float64, float64, error) {
	t0 := startTimer()
	s, err := qagview.NewSummarizer(res, L)
	if err != nil {
		return 0, 0, 0, err
	}
	initMs := t0.ms()
	t1 := startTimer()
	store, err := s.Precompute(1, kMax, []int{D}, e.preOpts()...)
	if err != nil {
		return 0, 0, 0, err
	}
	sweepMs := t1.ms()
	t2 := startTimer()
	if _, err := store.Solution(kMax, D); err != nil {
		return 0, 0, 0, err
	}
	return initMs, sweepMs, t2.ms(), nil
}

// Fig7K varies k for the precomputation path (Figure 7a): L=1000, D=2,
// N≈2087.
func Fig7K(e *Env) ([]Table, error) {
	res, err := e.MovieLensResult(8, 2087)
	if err != nil {
		return nil, err
	}
	L := 1000
	if res.N() < L {
		L = res.N()
	}
	t := Table{
		ID:     "fig7a",
		Title:  "Precompute runtime (ms) vs k; L=1000, D=2",
		Header: []string{"k", "init ms", "algo ms", "retrieve ms"},
		Notes:  fmt.Sprintf("N = %d (paper: 2087)", res.N()),
	}
	for _, k := range []int{5, 10, 20, 50, 80} {
		initMs, sweepMs, retMs, err := precomputeRun(e, res, k, L, 2)
		if err != nil {
			return nil, err
		}
		t.Add(k, fms(initMs), fms(sweepMs), fms(retMs))
	}
	return []Table{t}, nil
}

// Fig7L varies L for single vs precompute (Figures 7c/7d): k=20, D=2,
// N≈2087.
func Fig7L(e *Env) ([]Table, error) {
	res, err := e.MovieLensResult(8, 2087)
	if err != nil {
		return nil, err
	}
	return singleVsPrecompute(e, "fig7cd", res, []int{200, 500, 1000},
		fmt.Sprintf("k=20, D=2, N=%d (paper: 2087)", res.N()))
}

// Fig7N varies the answer-set size N (Figures 7e/7f): k=20, L=500, D=2.
func Fig7N(e *Env) ([]Table, error) {
	single := Table{
		ID:     "fig7e",
		Title:  "Single run (ms) vs N; k=20, L=500, D=2",
		Header: []string{"N", "init ms", "algo ms"},
	}
	pre := Table{
		ID:     "fig7f",
		Title:  "With precomputation (ms) vs N; k=20, L=500, D=2",
		Header: []string{"N", "init ms", "algo ms", "retrieve ms"},
	}
	for _, target := range []int{927, 2087, 6955} {
		res, err := e.MovieLensResult(8, target)
		if err != nil {
			return nil, err
		}
		L := 500
		if res.N() < L {
			L = res.N()
		}
		i1, a1, err := singleRun(e, res, 20, L, 2)
		if err != nil {
			return nil, err
		}
		single.Add(res.N(), fms(i1), fms(a1))
		i2, a2, r2, err := precomputeRun(e, res, 20, L, 2)
		if err != nil {
			return nil, err
		}
		pre.Add(res.N(), fms(i2), fms(a2), fms(r2))
	}
	return []Table{single, pre}, nil
}

// Fig7Runs compares cumulative cost over six runs (Figure 7b): the single
// path repeats init+algo per run; the precompute path pays init+sweep once
// and then retrieves.
func Fig7Runs(e *Env) ([]Table, error) {
	res, err := e.MovieLensResult(8, 6955)
	if err != nil {
		return nil, err
	}
	L := 500
	if res.N() < L {
		L = res.N()
	}
	ks := []int{5, 8, 10, 12, 15, 20}
	t := Table{
		ID:     "fig7b",
		Title:  "Cumulative runtime (ms) over six runs (varying k)",
		Header: []string{"runs", "single cumulative ms", "precompute cumulative ms"},
		Notes:  fmt.Sprintf("N = %d (paper: ~7000); runs request k = %v", res.N(), ks),
	}
	// Single path.
	var singleCum []float64
	total := 0.0
	for _, k := range ks {
		i, a, err := singleRun(e, res, k, L, 2)
		if err != nil {
			return nil, err
		}
		total += i + a
		singleCum = append(singleCum, total)
	}
	// Precompute path.
	t0 := startTimer()
	s, err := qagview.NewSummarizer(res, L)
	if err != nil {
		return nil, err
	}
	store, err := s.Precompute(1, 20, []int{2}, e.preOpts()...)
	if err != nil {
		return nil, err
	}
	preBase := t0.ms()
	var preCum []float64
	total = preBase
	for _, k := range ks {
		t1 := startTimer()
		if _, err := store.Solution(k, 2); err != nil {
			return nil, err
		}
		total += t1.ms()
		preCum = append(preCum, total)
	}
	for i := range ks {
		t.Add(i+1, fms(singleCum[i]), fms(preCum[i]))
	}
	return []Table{t}, nil
}

func singleVsPrecompute(e *Env, id string, res *qagview.Result, Ls []int, note string) ([]Table, error) {
	single := Table{
		ID:     id + "-single",
		Title:  "Single run (ms) vs L",
		Header: []string{"L", "init ms", "algo ms"},
		Notes:  note,
	}
	pre := Table{
		ID:     id + "-pre",
		Title:  "With precomputation (ms) vs L",
		Header: []string{"L", "init ms", "algo ms", "retrieve ms"},
		Notes:  note,
	}
	for _, L := range Ls {
		if L > res.N() {
			L = res.N()
		}
		i1, a1, err := singleRun(e, res, 20, L, 2)
		if err != nil {
			return nil, err
		}
		single.Add(L, fms(i1), fms(a1))
		i2, a2, r2, err := precomputeRun(e, res, 20, L, 2)
		if err != nil {
			return nil, err
		}
		pre.Add(L, fms(i2), fms(a2), fms(r2))
	}
	return []Table{single, pre}, nil
}

// Fig7Par measures the parallel precompute fan-out: one full (k, D) guidance
// grid (the Figure 2 workload at Figure 7 scale) timed at increasing worker
// counts, verifying along the way that every parallelism level produces the
// sequential guidance series bit-for-bit.
func Fig7Par(e *Env) ([]Table, error) {
	res, err := e.MovieLensResult(8, 2087)
	if err != nil {
		return nil, err
	}
	L := 500
	if res.N() < L {
		L = res.N()
	}
	s, err := qagview.NewSummarizer(res, L)
	if err != nil {
		return nil, err
	}
	kMin, kMax := 1, 20
	ds := []int{1, 2, 3, 4, 5, 6}
	for len(ds) > 0 && ds[len(ds)-1] > s.M() {
		ds = ds[:len(ds)-1]
	}
	t := Table{
		ID:     "fig7par",
		Title:  fmt.Sprintf("Precompute grid (ms) vs worker count; k=[%d,%d], D=%v, L=%d", kMin, kMax, ds, L),
		Header: []string{"workers", "sweep ms", "speedup", "identical to sequential", "pooled reuses", "lca memo hit%"},
		Notes: fmt.Sprintf("N = %d; GOMAXPROCS = %d; the per-D replays are independent given the shared Fixed-Order state; "+
			"pooled reuses = replays served from the replay-state pool instead of allocating",
			res.N(), runtime.GOMAXPROCS(0)),
	}
	var baseMs float64
	var baseline *qagview.Guidance
	for _, workers := range []int{1, 2, 4, 8} {
		t0 := startTimer()
		store, err := s.Precompute(kMin, kMax, ds, qagview.Parallelism(workers))
		if err != nil {
			return nil, err
		}
		ms := t0.ms()
		rs := store.ReplayStats()
		g := store.Guidance()
		same := true
		if baseline == nil {
			baseline = g
			baseMs = ms
		} else {
			for _, d := range ds {
				a, b := baseline.Series[d], g.Series[d]
				for i := range a {
					if a[i] != b[i] {
						same = false
					}
				}
			}
		}
		hitPct := 0.0
		if probes := rs.LCAMemoHits + rs.LCAMemoMisses; probes > 0 {
			hitPct = 100 * float64(rs.LCAMemoHits) / float64(probes)
		}
		t.Add(workers, fms(ms), fmt.Sprintf("%.2fx", baseMs/ms), same,
			fmt.Sprintf("%d/%d", rs.PooledReuses, rs.Replays), fmt.Sprintf("%.1f", hitPct))
	}
	return []Table{t}, nil
}

// Fig8A ablates the cluster-generation/mapping optimization (Figure 8a):
// initialization time with and without it, varying L. The optimized build
// computes coverage on demand, so a third column also hands out every
// cluster once: that build and the naive one both end with every cluster's
// coverage mapped.
func Fig8A(e *Env) ([]Table, error) {
	res, err := e.MovieLensResult(8, 2087)
	if err != nil {
		return nil, err
	}
	space, err := lattice.NewSpace(res.GroupBy, res.Rows, res.Vals)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:    "fig8a",
		Title: "Initialization (ms) with vs without the cluster-mapping optimization",
		Header: []string{"L", "optimized ms", "optimized + fill-all ms", "naive ms",
			"optimized probes", "naive probes"},
		Notes: fmt.Sprintf("N = %d; probes = coverage-mapping operations (posting bits set "+
			"when optimized, tuple-cluster tests when naive)", res.N()),
	}
	for _, L := range []int{200, 500, 1000} {
		if L > space.N() {
			L = space.N()
		}
		t0 := startTimer()
		ix, optStats, err := lattice.BuildIndexStats(space, L, true)
		if err != nil {
			return nil, err
		}
		optMs := t0.ms()
		fillMs := fillAllMs(ix)
		t1 := startTimer()
		_, naiveStats, err := lattice.BuildIndexStats(space, L, false)
		if err != nil {
			return nil, err
		}
		t.Add(L, fms(optMs), fms(optMs+fillMs), fms(t1.ms()), optStats.MappingOps, naiveStats.MappingOps)
	}
	return []Table{t}, nil
}

// Fig8B ablates Delta-Judgment (Figure 8b): Hybrid running time with and
// without it, varying L, k=20, D=2.
func Fig8B(e *Env) ([]Table, error) {
	res, err := e.MovieLensResult(8, 2087)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:     "fig8b",
		Title:  "Algorithm time (ms) with vs without Delta-Judgment; k=20, D=2",
		Header: []string{"L", "with delta ms", "without delta ms", "value (delta)", "value (no delta)", "full evals (delta)", "full evals (no delta)"},
		Notes: fmt.Sprintf("N = %d; Delta-Judgment is exact up to floating-point "+
			"tie-breaking among equal-valued merges, so the two values may differ "+
			"in the last digits", res.N()),
	}
	for _, L := range []int{200, 500, 1000} {
		if L > res.N() {
			L = res.N()
		}
		s, err := qagview.NewSummarizer(res, L)
		if err != nil {
			return nil, err
		}
		p := qagview.Params{K: 20, L: L, D: 2}
		var withStats, withoutStats qagview.Stats
		t0 := startTimer()
		a, err := s.Summarize(qagview.Hybrid, p, qagview.WithDelta(true), qagview.WithStats(&withStats))
		if err != nil {
			return nil, err
		}
		withMs := t0.ms()
		t1 := startTimer()
		b, err := s.Summarize(qagview.Hybrid, p, qagview.WithDelta(false), qagview.WithStats(&withoutStats))
		if err != nil {
			return nil, err
		}
		for name, sol := range map[string]*qagview.Solution{"delta": a, "no-delta": b} {
			if err := s.Validate(p, sol); err != nil {
				return nil, fmt.Errorf("exp: %s solution infeasible at L=%d: %v", name, L, err)
			}
		}
		t.Add(L, fms(withMs), fms(t1.ms()), a.AvgValue(), b.AvgValue(),
			withStats.FullEvals, withoutStats.FullEvals)
	}
	return []Table{t}, nil
}

// Fig9 is the TPC-DS scalability experiment (Figures 9a/9b): k=20, D=2,
// N≈47361, L in {500, 1000, 2000}.
func Fig9(e *Env) ([]Table, error) {
	res, err := e.TPCDSResult(7, 47361)
	if err != nil {
		return nil, err
	}
	return singleVsPrecompute(e, "fig9", res, []int{500, 1000, 2000},
		fmt.Sprintf("TPC-DS store_sales; k=20, D=2, N=%d (paper: 47361)", res.N()))
}

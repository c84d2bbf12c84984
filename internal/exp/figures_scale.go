package exp

import (
	"fmt"
	"runtime"

	"qagview/internal/lattice"
)

// FigScale measures cluster-space build throughput as the answer-set size N
// grows: one BuildIndexStats per (N, worker count), with the packed key
// width, the per-phase breakdown (sequential cluster generation, the
// parallelized tuple→cluster coverage mapping, deterministic arena assembly)
// and the probe throughput of the mapping phase. The 1-worker build of each
// N is the baseline, so the speedup column shows the effect of the phase-2
// fan-out; every build is verified bit-identical by the lattice and
// summarize equivalence tests, so this table is purely about throughput.
func FigScale(e *Env) ([]Table, error) {
	t := Table{
		ID:    "figscale",
		Title: "Cluster-space build (ms) vs N and workers; L=500",
		Header: []string{"N", "clusters", "workers", "key words", "generate ms", "map ms",
			"assemble ms", "total ms", "speedup", "probes/ms"},
		Notes: fmt.Sprintf("GOMAXPROCS = %d; speedup is vs the 1-worker build of the same N; "+
			"probes/ms covers the mapping phase only", runtime.GOMAXPROCS(0)),
	}
	workerCounts := []int{1, 2, 4, 8}
	for _, target := range []int{927, 2087, 6955} {
		res, err := e.MovieLensResult(8, target)
		if err != nil {
			return nil, err
		}
		space, err := lattice.NewSpace(res.GroupBy, res.Rows, res.Vals)
		if err != nil {
			return nil, err
		}
		L := 500
		if space.N() < L {
			L = space.N()
		}
		var baseMs float64
		for _, workers := range workerCounts {
			t1 := startTimer()
			_, st, err := lattice.BuildIndexStats(space, L, true, lattice.BuildParallelism(workers))
			if err != nil {
				return nil, err
			}
			ms := t1.ms()
			if workers == 1 {
				baseMs = ms
			}
			t.Add(space.N(), st.Generated, st.Workers, st.KeyWords,
				fms(st.GenerateMs), fms(st.MapMs), fms(st.AssembleMs),
				fms(ms), fmt.Sprintf("%.2fx", baseMs/ms), probesPerMs(st))
		}
	}
	return []Table{t}, nil
}

// probesPerMs renders the mapping-phase throughput of a build.
func probesPerMs(st lattice.BuildStats) string {
	if st.MapMs <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(st.MappingOps)/st.MapMs)
}

package exp

import (
	"fmt"
	"runtime"

	"qagview/internal/lattice"
)

// FigScale measures cluster-space build throughput as the answer-set size N
// grows: one BuildIndexStats per N, with the packed key width, the
// per-phase breakdown (cluster generation from the top-L tuples, then the
// posting bitmaps coverage is computed from on demand), and the time to
// hand out every cluster once — the coverage an eager build would have
// materialized up front. Every build is verified bit-identical to the
// naive one by the lattice and summarize equivalence tests, so this table
// is purely about throughput.
func FigScale(e *Env) ([]Table, error) {
	t := Table{
		ID:    "figscale",
		Title: "Cluster-space build (ms) vs N; L=500",
		Header: []string{"N", "clusters", "key words", "generate ms", "map ms",
			"total ms", "fill-all ms", "postings/ms"},
		Notes: fmt.Sprintf("GOMAXPROCS = %d; map builds the posting bitmaps; fill-all hands "+
			"out every cluster once after the build; postings/ms covers the map phase only",
			runtime.GOMAXPROCS(0)),
	}
	for _, target := range []int{927, 2087, 6955} {
		res, err := e.MovieLensResult(8, target)
		if err != nil {
			return nil, err
		}
		space, err := lattice.NewSpace(res.GroupBy, res.Rows, res.Vals)
		if err != nil {
			return nil, err
		}
		L := min(500, space.N())
		t1 := startTimer()
		ix, st, err := lattice.BuildIndexStats(space, L, true)
		if err != nil {
			return nil, err
		}
		ms := t1.ms()
		t.Add(space.N(), st.Generated, st.KeyWords, fms(st.GenerateMs), fms(st.MapMs),
			fms(ms), fms(fillAllMs(ix)), probesPerMs(st))
	}
	return []Table{t}, nil
}

// fillAllMs hands out every cluster of a fresh index once and returns the
// time it took.
func fillAllMs(ix *lattice.Index) float64 {
	t := startTimer()
	for id := 0; id < ix.NumClusters(); id++ {
		ix.Cluster(int32(id))
	}
	return t.ms()
}

// probesPerMs renders the coverage-phase throughput of a build.
func probesPerMs(st lattice.BuildStats) string {
	if st.MapMs <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(st.MappingOps)/st.MapMs)
}

// Benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation. Each benchmark exercises the operation whose cost the figure
// reports; the cmd/experiments binary prints the corresponding rows. See
// EXPERIMENTS.md for the figure-by-figure mapping.
package qagview_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qagview"
	"qagview/internal/baselines"
	"qagview/internal/dtree"
	"qagview/internal/engine"
	"qagview/internal/exp"
	"qagview/internal/lattice"
	"qagview/internal/movielens"
	"qagview/internal/obs"
	"qagview/internal/server"
	"qagview/internal/summarize"
	"qagview/internal/tpcds"
	"qagview/internal/userstudy"
	"qagview/internal/wal"
)

// benchState holds datasets and summarizers shared by all benchmarks; built
// once on first use.
type benchState struct {
	env *exp.Env

	adventure *qagview.Result // running-example query, N ~ 50
	mid       *qagview.Result // m=8, N ~ 2087
	tp        *qagview.Result // TPC-DS m=7

	advSumm *qagview.Summarizer // L = N over adventure
	midSumm *qagview.Summarizer // L = 500 over mid

	space *lattice.Space // mid result as a lattice space
}

var (
	stateOnce sync.Once
	state     *benchState
	stateErr  error
)

func getState(b *testing.B) *benchState {
	b.Helper()
	stateOnce.Do(func() {
		env, err := exp.NewEnv(
			movielens.DefaultConfig(),
			tpcds.Config{Rows: 150_000, Seed: 7},
		)
		if err != nil {
			stateErr = err
			return
		}
		s := &benchState{env: env}
		if s.adventure, err = env.AdventureResultN(50); err != nil {
			stateErr = err
			return
		}
		if s.mid, err = env.MovieLensResult(8, 2087); err != nil {
			stateErr = err
			return
		}
		if s.tp, err = env.TPCDSResult(7, 20000); err != nil {
			stateErr = err
			return
		}
		if s.advSumm, err = qagview.NewSummarizer(s.adventure, s.adventure.N()); err != nil {
			stateErr = err
			return
		}
		L := 500
		if s.mid.N() < L {
			L = s.mid.N()
		}
		if s.midSumm, err = qagview.NewSummarizer(s.mid, L); err != nil {
			stateErr = err
			return
		}
		if s.space, err = lattice.NewSpace(s.mid.GroupBy, s.mid.Rows, s.mid.Vals); err != nil {
			stateErr = err
			return
		}
		state = s
	})
	if stateErr != nil {
		b.Fatal(stateErr)
	}
	return state
}

// BenchmarkFig2Guidance measures generating the parameter-selection view:
// a full precompute over k=2..15 and D=1..4 at L=15 (Figure 2; the paper
// reports 20-40 ms for this on MovieLens).
func BenchmarkFig2Guidance(b *testing.B) {
	s := getState(b)
	L := 15
	summ, err := qagview.NewSummarizer(s.adventure, L)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := summ.Precompute(2, 15, []int{1, 2, 3, 4})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.Solution(10, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 measures the algorithms of the brute-force comparison at
// L=5, D=3, k=4 (Figures 5a/5b).
func BenchmarkFig5(b *testing.B) {
	s := getState(b)
	p := qagview.Params{K: 4, L: 5, D: 3}
	for _, algo := range []qagview.Algorithm{
		qagview.BruteForce, qagview.BottomUp, qagview.FixedOrder, qagview.Hybrid,
	} {
		algo := algo
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.advSumm.Summarize(algo, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("random-fixed-order", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := s.advSumm.Summarize(qagview.RandomFixedOrder, p, qagview.WithRand(rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kmeans-fixed-order", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := s.advSumm.Summarize(qagview.KMeansFixedOrder, p, qagview.WithRand(rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6VaryK sweeps k at L=40, D=3 (Figures 6a/6b).
func BenchmarkFig6VaryK(b *testing.B) {
	s := getState(b)
	for _, k := range []int{5, 10, 20, 40} {
		p := qagview.Params{K: k, L: 40, D: 3}
		b.Run(label("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.midSumm.Summarize(qagview.Hybrid, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6VaryL sweeps L at k=3, D=3 (Figures 6c/6d).
func BenchmarkFig6VaryL(b *testing.B) {
	s := getState(b)
	for _, L := range []int{3, 9, 27, 81} {
		p := qagview.Params{K: 3, L: L, D: 3}
		b.Run(label("L", L), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.midSumm.Summarize(qagview.Hybrid, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6VaryD sweeps D at k=10, L=40 (Figures 6e/6f).
func BenchmarkFig6VaryD(b *testing.B) {
	s := getState(b)
	for _, d := range []int{1, 3, 6} {
		p := qagview.Params{K: 10, L: 40, D: d}
		b.Run(label("D", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.midSumm.Summarize(qagview.BottomUp, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6VaryM measures initialization (cluster-space construction) as
// the number of grouping attributes m grows (Figures 6g/6h).
func BenchmarkFig6VaryM(b *testing.B) {
	s := getState(b)
	for _, m := range []int{4, 6, 8, 10} {
		res, err := s.env.MovieLensResult(m, 200)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(label("m", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qagview.NewSummarizer(res, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7PrecomputeK measures the precompute path (init + sweep) for
// k up to 20 at L=500, D=2 (Figure 7a).
func BenchmarkFig7PrecomputeK(b *testing.B) {
	s := getState(b)
	for i := 0; i < b.N; i++ {
		L := 500
		if s.mid.N() < L {
			L = s.mid.N()
		}
		summ, err := qagview.NewSummarizer(s.mid, L)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := summ.Precompute(1, 20, []int{2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7PrecomputeKParallel measures the per-D fan-out of the
// precompute sweep on the Figure 7 grid (k up to 20, D in 1..4, L=500),
// sweeping the worker count. On a machine with >= 4 cores the par=4 case
// should run the sweep at least ~2x faster than par=1; output is
// bit-identical at every level (see TestParallelMatchesSequential).
func BenchmarkFig7PrecomputeKParallel(b *testing.B) {
	s := getState(b)
	ds := []int{1, 2, 3, 4}
	for _, par := range []int{1, 2, 4, 8} {
		par := par
		b.Run(label("par", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.midSumm.Precompute(1, 20, ds, qagview.Parallelism(par)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7Retrieve measures the precomputed retrieval path that makes
// repeated runs cheap (Figures 7b-7f): one interval-tree stab plus coverage
// reconstruction.
func BenchmarkFig7Retrieve(b *testing.B) {
	s := getState(b)
	store, err := s.midSumm.Precompute(1, 20, []int{2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Solution(1+i%20, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8InitOpt compares optimized vs naive cluster-space
// construction at L=200 (Figure 8a).
func BenchmarkFig8InitOpt(b *testing.B) {
	s := getState(b)
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lattice.BuildIndex(s.space, 200); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lattice.BuildIndexNaive(s.space, 200); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuildIndexMovieLens measures cluster-space construction on the
// MovieLens space (m=8, N≈2087, L=500, one-word packed keys): cluster
// generation plus the posting bitmaps. Coverage is filled on demand, after
// the build. The packed-par1 name is the sub-benchmark's name from when the
// build had a worker-count knob; it is kept so the committed baseline row
// still guards the build.
func BenchmarkBuildIndexMovieLens(b *testing.B) {
	s := getState(b)
	L := min(500, s.space.N())
	b.Run("packed-par1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lattice.BuildIndex(s.space, L); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkApplyDelta measures incremental cluster-space maintenance
// against the full rebuild it replaces, on the MovieLens space (m=8,
// N≈2087, L=500): a batch of answer-tuple appends ranking below the top L
// (the common live-table case) is absorbed by Index.ApplyDelta — which
// shares the predecessor's cluster generation and builds only new posting
// bitmaps — versus NewSpace + BuildIndex from scratch, which generates the
// clusters again. Neither fills any coverage. Output is bit-identical
// either way (see lattice's delta equivalence tests).
func BenchmarkApplyDelta(b *testing.B) {
	s := getState(b)
	L := 500
	if s.space.N() < L {
		L = s.space.N()
	}
	base, err := lattice.BuildIndex(s.space, L)
	if err != nil {
		b.Fatal(err)
	}
	baseRows := make([][]string, s.space.N())
	for i, tup := range s.space.Tuples {
		baseRows[i] = s.space.Render(tup)
	}
	low := s.space.Vals[L-1] - 1
	rng := rand.New(rand.NewSource(11))
	for _, batch := range []int{1, 64, 4096} {
		d := lattice.Delta{
			AppendRows: make([][]string, batch),
			AppendVals: make([]float64, batch),
		}
		for i := 0; i < batch; i++ {
			d.AppendRows[i] = baseRows[rng.Intn(len(baseRows))]
			d.AppendVals[i] = low - rng.Float64()
		}
		combinedRows := append(append([][]string(nil), baseRows...), d.AppendRows...)
		combinedVals := append(append([]float64(nil), s.space.Vals...), d.AppendVals...)
		b.Run(label("batch", batch)+"/incremental", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := base.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(label("batch", batch)+"/rebuild", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp, err := lattice.NewSpace(s.space.Attrs, combinedRows, combinedVals)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := lattice.BuildIndex(sp, L); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Delta compares Hybrid with and without Delta-Judgment at
// L=500, k=20, D=2 (Figure 8b).
func BenchmarkFig8Delta(b *testing.B) {
	s := getState(b)
	p := qagview.Params{K: 20, L: s.midSumm.L(), D: 2}
	b.Run("with-delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.midSumm.Summarize(qagview.Hybrid, p, qagview.WithDelta(true)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.midSumm.Summarize(qagview.Hybrid, p, qagview.WithDelta(false)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig9TPCDS measures initialization plus one Hybrid run over the
// TPC-DS workload at L=500, k=20, D=2 (Figures 9a/9b).
func BenchmarkFig9TPCDS(b *testing.B) {
	s := getState(b)
	L := 500
	if s.tp.N() < L {
		L = s.tp.N()
	}
	for i := 0; i < b.N; i++ {
		summ, err := qagview.NewSummarizer(s.tp, L)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := summ.Summarize(qagview.Hybrid, qagview.Params{K: 20, L: L, D: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1UserStudy measures one full simulated-subject study pass
// for the varying-method group (Tables 1/2).
func BenchmarkTable1UserStudy(b *testing.B) {
	s := getState(b)
	space, err := lattice.NewSpace(s.mid.GroupBy, s.mid.Rows, s.mid.Vals)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := lattice.BuildIndex(space, 50)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := summarize.Hybrid(ix, summarize.Params{K: 10, L: 50, D: 1})
	if err != nil {
		b.Fatal(err)
	}
	rules := userstudy.FromSolution(ix, sol)
	labels := make([]bool, space.N())
	for i := range labels {
		labels[i] = i < 50
	}
	tuples := make([][]int32, space.N())
	for i := range tuples {
		tuples[i] = space.Tuples[i]
	}
	tree, err := dtree.TuneK(tuples, labels, space.Vals, 10, 7)
	if err != nil {
		b.Fatal(err)
	}
	dtRules := userstudy.FromDecisionTree(space, tree)
	cfg := userstudy.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := userstudy.Simulate(space, 50, rules, cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := userstudy.Simulate(space, 50, dtRules, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16Placement measures the optimal comparison-view placement
// (Hungarian matching) for consecutive k=20 solutions (Figures 16a/16b).
func BenchmarkFig16Placement(b *testing.B) {
	s := getState(b)
	oldSol, err := s.midSumm.Summarize(qagview.Hybrid, qagview.Params{K: 20, L: 30, D: 2})
	if err != nil {
		b.Fatal(err)
	}
	newSol, err := s.midSumm.Summarize(qagview.Hybrid, qagview.Params{K: 20, L: 40, D: 2})
	if err != nil {
		b.Fatal(err)
	}
	diff, err := s.midSumm.Compare(oldSol, newSol)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diff.OptimalOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA5Baselines measures the related-work baselines on the running
// example (Appendix A.5).
func BenchmarkA5Baselines(b *testing.B) {
	s := getState(b)
	space, err := lattice.NewSpace(s.adventure.GroupBy, s.adventure.Rows, s.adventure.Vals)
	if err != nil {
		b.Fatal(err)
	}
	L := 10
	if space.N() < L {
		L = space.N()
	}
	ix, err := lattice.BuildIndex(space, L)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("smart-drill-down", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.SmartDrillDown(ix, 4, baselines.ScopeTopL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("diversified-topk-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.DiversifiedTopKExact(space, L, 4, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("disc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.DisC(space, L, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mmr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.MMR(space, L, 4, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func label(name string, v int) string {
	return name + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkVariantsAblation compares the Bottom-Up design choices the paper
// evaluates in Section 5.1: the standard solution-average criterion against
// the max-LCA-average criterion and the level-(D-1) start.
func BenchmarkVariantsAblation(b *testing.B) {
	s := getState(b)
	p := qagview.Params{K: 5, L: 40, D: 3}
	for _, algo := range []qagview.Algorithm{
		qagview.BottomUp, qagview.BottomUpMaxLCA, qagview.BottomUpLevelStart,
	} {
		algo := algo
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.midSumm.Summarize(algo, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineAggregate measures the SQL substrate: grouping 100k rating
// rows over the running example's four attributes.
func BenchmarkEngineAggregate(b *testing.B) {
	s := getState(b)
	sql, err := movielens.Query(4, 50, "genre_adventure = 1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.env.ML.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteMovieLens compares the row-at-a-time reference executor
// with the vectorized, morsel-parallel pipeline on the MovieLens workload:
// the running example's selective query (WHERE + HAVING) and a full-scan
// grouping, sequential and parallel. The executors are proven bit-identical
// (see internal/engine), so this measures pure execution cost.
func BenchmarkExecuteMovieLens(b *testing.B) {
	s := getState(b)
	selective, err := movielens.Query(4, 50, "genre_adventure = 1")
	if err != nil {
		b.Fatal(err)
	}
	fullscan, err := movielens.Query(4, 0, "")
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opts []qagview.QueryOption
	}{
		{"reference", []qagview.QueryOption{engine.ExecReference()}},
		{"vec_par1", []qagview.QueryOption{qagview.ExecParallelism(1)}},
		{"vec_par8", []qagview.QueryOption{qagview.ExecParallelism(8)}},
	}
	for _, q := range []struct{ name, sql string }{
		{"selective", selective},
		{"fullscan", fullscan},
	} {
		for _, v := range variants {
			b.Run(q.name+"/"+v.name, func(b *testing.B) {
				// Warm the dictionary-code cache and executor pools so the
				// loop measures steady-state (refresh-path) execution.
				if _, err := s.env.ML.Query(q.sql, v.opts...); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.env.ML.Query(q.sql, v.opts...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The flat half of the open_m8 pair: BenchmarkJoinMovieLens/open_m8 runs
	// the same answers through the star join.
	openM8 := openM8SQL(b, s.env.ML, movielens.Query)
	b.Run("open_m8", func(b *testing.B) {
		benchQuery(b, s.env.ML, openM8, qagview.ExecParallelism(1))
	})
}

// openM8SQL renders e2ebench's open_join query shape through mk (the flat
// movielens.Query or the star movielens.JoinQuery): the first eight
// grouping attributes, no WHERE, and the HAVING count(*) threshold that
// leaves about 1,900 groups.
func openM8SQL(b *testing.B, db *qagview.DB, mk func(m, minCount int, where string) (string, error)) string {
	const m, targetN = 8, 1900
	q0, err := mk(m, 0, "")
	if err != nil {
		b.Fatal(err)
	}
	counts, err := db.Query(strings.Replace(q0, "avg(", "count(", 1))
	if err != nil {
		b.Fatal(err)
	}
	cs := append([]float64(nil), counts.Vals...)
	sort.Sort(sort.Reverse(sort.Float64Slice(cs)))
	threshold := 0
	if targetN < len(cs) {
		threshold = int(cs[targetN])
	}
	q, err := mk(m, threshold, "")
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// benchQuery runs sql once to warm the dictionary, column-group and
// executor-pool caches, so the timed loop measures steady-state
// (refresh-path) execution, not one-time indexing.
func benchQuery(b *testing.B, db *qagview.DB, sql string, opts ...qagview.QueryOption) {
	if _, err := db.Query(sql, opts...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(sql, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendWAL measures the durable append path behind live-table
// writes when qagviewd runs with -wal: every record is CRC-framed, written,
// and fsynced before the caller's ack. The serial case pays a full fsync
// per record and is dominated by the device's flush latency; the parallel
// case exercises group commit — concurrent appends staged while a flush is
// in flight share the next write+fsync — so per-record cost drops with
// offered load. Replay is discarded (fresh dir per run).
func BenchmarkAppendWAL(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	open := func(b *testing.B) *wal.Log {
		b.Helper()
		l, _, err := wal.Open(b.TempDir(), func(wal.Record) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		return l
	}
	b.Run("serial", func(b *testing.B) {
		l := open(b)
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.Append(wal.Record{Op: 2, Table: "bench", Gen: uint64(i + 1), Data: payload}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("group-commit-par8", func(b *testing.B) {
		l := open(b)
		var gen atomic.Uint64
		b.SetBytes(int64(len(payload)))
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := l.Append(wal.Record{Op: 2, Table: "bench", Gen: gen.Add(1), Data: payload}); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkAppendRows measures one step of the live-table loop on the
// 100k-row RatingTable: append a 64-row batch with Relation.Append, then run
// the live workload's refresh query (e2ebench live: seven grouping
// attributes, one gender) on the successor. Each step appends to the newest
// generation, as qagviewd does, so the append extends the shared column
// arrays and the inherited dictionaries in place and the query re-encodes
// only the batch.
func BenchmarkAppendRows(b *testing.B) {
	rel, err := movielens.Generate(movielens.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const attrs = "hdec, agegrp, occupation, decade, zipregion, weekday, genre_action"
	const sql = "SELECT " + attrs + ", avg(rating) AS val FROM RatingTable WHERE gender = 'M' GROUP BY " +
		attrs + " HAVING count(*) > 2 ORDER BY val DESC"
	// The batch re-appends 64 existing rows, so every grouping value is one
	// the dictionaries already hold.
	rng := rand.New(rand.NewSource(1))
	rows := make([]int, 64)
	for i := range rows {
		rows[i] = rng.Intn(rel.NumRows())
	}
	batch := make([]qagview.Column, rel.NumCols())
	for i := range batch {
		src := rel.Column(i)
		c := qagview.Column{Name: src.Name, Kind: src.Kind}
		for _, r := range rows {
			switch src.Kind {
			case qagview.KindString:
				c.Str = append(c.Str, src.Str[r])
			case qagview.KindInt:
				c.Int = append(c.Int, src.Int[r])
			case qagview.KindFloat:
				c.Float = append(c.Float, src.Float[r])
			}
		}
		batch[i] = c
	}
	db := qagview.NewDB()
	step := func() {
		next, err := rel.Append(batch)
		if err != nil {
			b.Fatal(err)
		}
		rel = next
		if err := db.Register(rel); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
	// Warm-up: the first query builds the dictionaries and the first append
	// copies the generator's arrays; every later step is the steady state.
	if err := db.Register(rel); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Query(sql); err != nil {
		b.Fatal(err)
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkJoinMovieLens measures the multi-table path on the MovieLens star
// schema: the running example's aggregate over ratings JOIN users JOIN
// movies (acyclic, so the auto rule picks left-deep hash joins), across
// worker counts, plus the forced
// worst-case-optimal plan for comparison. All variants are bit-identical
// to the nested-loop reference (see internal/engine and internal/movielens
// equivalence tests); this measures pure join + aggregation cost.
func BenchmarkJoinMovieLens(b *testing.B) {
	star, err := movielens.GenerateStar(movielens.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	db := qagview.NewDB()
	for _, r := range star.Tables() {
		if err := db.Register(r); err != nil {
			b.Fatal(err)
		}
	}
	sql, err := movielens.JoinQuery(4, 50, "genre_adventure = 1")
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		opts []qagview.QueryOption
	}{
		{"hash_par1", []qagview.QueryOption{qagview.ExecParallelism(1)}},
		{"hash_par8", []qagview.QueryOption{qagview.ExecParallelism(8)}},
		{"wcoj_par8", []qagview.QueryOption{qagview.ExecParallelism(8), qagview.ExecGenericJoin()}},
	} {
		b.Run(v.name, func(b *testing.B) {
			// Warm the dictionary and column-group caches so the loop
			// measures steady-state execution, not one-time indexing.
			if _, err := db.Query(sql, v.opts...); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(sql, v.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// e2ebench's open_join query; BenchmarkExecuteMovieLens/open_m8 is the
	// same query over the denormalized RatingTable.
	openM8 := openM8SQL(b, db, movielens.JoinQuery)
	b.Run("open_m8", func(b *testing.B) {
		benchQuery(b, db, openM8, qagview.ExecParallelism(1))
	})
}

// BenchmarkJoinTriangle measures the worst-case-optimal path where it earns
// its name: counting triangles in a random directed graph. The join graph is
// cyclic, so the auto rule runs leapfrog (output-optimal); the forced binary
// hash-join plan materializes the quadratic open-wedge intermediate first —
// the asymptotic blowup the WCOJ path exists to avoid.
func BenchmarkJoinTriangle(b *testing.B) {
	// Hub-skewed graph: half the edges touch one of a few hub nodes, so the
	// open-wedge intermediate (hub degree squared) dwarfs the triangle count
	// — the regime the worst-case-optimal path is built for.
	const nodes, edges, hubs = 4000, 20000, 6
	rng := rand.New(rand.NewSource(11))
	src := make([]int64, edges)
	dst := make([]int64, edges)
	for i := range src {
		src[i] = int64(rng.Intn(nodes))
		dst[i] = int64(rng.Intn(nodes))
		if i%2 == 0 {
			if i%4 == 0 {
				src[i] = int64(rng.Intn(hubs))
			} else {
				dst[i] = int64(rng.Intn(hubs))
			}
		}
	}
	rel, err := qagview.FromColumns("edges",
		qagview.IntColumn("src", src), qagview.IntColumn("dst", dst))
	if err != nil {
		b.Fatal(err)
	}
	db := qagview.NewDB()
	if err := db.Register(rel); err != nil {
		b.Fatal(err)
	}
	const sql = `SELECT e1.src, count(*) AS c FROM edges e1
		JOIN edges e2 ON e1.dst = e2.src
		JOIN edges e3 ON e2.dst = e3.src AND e3.dst = e1.src
		GROUP BY e1.src ORDER BY c DESC LIMIT 20`
	for _, v := range []struct {
		name string
		opts []qagview.QueryOption
	}{
		{"wcoj_par1", []qagview.QueryOption{qagview.ExecParallelism(1)}},
		{"wcoj_par8", []qagview.QueryOption{qagview.ExecParallelism(8)}},
		{"hash_par8", []qagview.QueryOption{qagview.ExecParallelism(8), qagview.ExecHashJoin()}},
	} {
		b.Run(v.name, func(b *testing.B) {
			if _, err := db.Query(sql, v.opts...); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(sql, v.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceOverhead gates the tentpole's "near-zero cost when off"
// claim: the same MovieLens query (a) without any context, (b) with a
// context threaded but no trace attached — the exact path every request
// takes when tracing is disabled, where StartSpan must return without
// allocating — and (c) with a forced trace recording the full span tree.
// The benchcmp gate keeps off/untraced within noise of each other; traced
// shows what opting in costs.
func BenchmarkTraceOverhead(b *testing.B) {
	s := getState(b)
	sql, err := movielens.Query(4, 50, "genre_adventure = 1")
	if err != nil {
		b.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	tracer := obs.NewTracer(16, quiet)
	for _, v := range []struct {
		name string
		opts func() ([]qagview.QueryOption, *obs.Trace)
	}{
		{"off", func() ([]qagview.QueryOption, *obs.Trace) {
			return nil, nil
		}},
		{"ctx_untraced", func() ([]qagview.QueryOption, *obs.Trace) {
			return []qagview.QueryOption{qagview.ExecContext(context.Background())}, nil
		}},
		{"traced", func() ([]qagview.QueryOption, *obs.Trace) {
			ctx, tr := tracer.StartTrace(context.Background(), "bench.query", true)
			return []qagview.QueryOption{qagview.ExecContext(ctx)}, tr
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			opts, _ := v.opts()
			if _, err := s.env.ML.Query(sql, opts...); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts, tr := v.opts()
				if _, err := s.env.ML.Query(sql, opts...); err != nil {
					b.Fatal(err)
				}
				tracer.Finish(tr)
			}
		})
	}
}

// BenchmarkLiveRefresh measures one cycle of a live session on the 100k-row
// RatingTable, end to end through an in-process qagviewd (no WAL, requests
// through its HTTP handler): append 64 rows of the session's gender, read
// the session's solution until it carries the new data_version (the first
// read refreshes the session), and wait for the successor store. The
// session has the e2ebench live shape: seven grouping attributes, gender =
// 'M', the HAVING threshold that leaves about 1,500 groups, L = 1000, and
// the (k, D) grid k in [1, 40], D in {1, 2, 3}.
//
// "fresh" times the append and the refreshing read only, with the timer
// stopped while the successor store builds; "ready" times the whole cycle.
func BenchmarkLiveRefresh(b *testing.B) {
	rel, err := movielens.Generate(movielens.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const attrs = "hdec, agegrp, occupation, decade, zipregion, weekday, genre_action"
	db := qagview.NewDB()
	if err := db.Register(rel); err != nil {
		b.Fatal(err)
	}
	counts, err := db.Query("SELECT " + attrs + ", count(rating) AS val FROM RatingTable WHERE gender = 'M' GROUP BY " + attrs + " ORDER BY val DESC")
	if err != nil {
		b.Fatal(err)
	}
	minCount := 0
	if counts.N() > 1500 {
		minCount = int(counts.Vals[1500])
	}
	sql := "SELECT " + attrs + ", avg(rating) AS val FROM RatingTable WHERE gender = 'M' GROUP BY " + attrs +
		" HAVING count(*) > " + itoa(minCount) + " ORDER BY val DESC"

	srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Close()
	if err := srv.Register(rel); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	call := func(method, path string, body any) map[string]any {
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				b.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		req := httptest.NewRequest(method, path, rd)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			b.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
		}
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			b.Fatal(err)
		}
		return out
	}
	open := call("POST", "/v1/sessions", map[string]any{"sql": sql, "l": 1000, "kmin": 1, "kmax": 40, "ds": []int{1, 2, 3}})
	session := "/v1/sessions/" + open["session"].(string)
	waitReady := func() {
		for call("GET", session, nil)["store_ready"] != true {
			time.Sleep(200 * time.Microsecond)
		}
	}
	waitReady()

	// Batches re-rate existing gender = 'M' rows, so every grouping value is
	// one the dictionaries already hold.
	g, _ := rel.ColumnByName("gender")
	var pick []int
	for i, v := range g.Str {
		if v == "M" {
			pick = append(pick, i)
		}
	}
	rating := rel.ColumnIndex("rating")
	rng := rand.New(rand.NewSource(1))
	batch := func() [][]string {
		rows := make([][]string, 64)
		for j := range rows {
			r := pick[rng.Intn(len(pick))]
			row := make([]string, rel.NumCols())
			for c := range row {
				row[c] = rel.StringAt(c, r)
			}
			row[rating] = itoa(1 + rng.Intn(5))
			rows[j] = row
		}
		return rows
	}
	refresh := func(batch [][]string) {
		gen := call("POST", "/v1/tables/RatingTable/rows", map[string]any{"rows": batch})["data_version"].(float64)
		for call("GET", session+"/solution?k=10&d=2", nil)["data_version"].(float64) < gen {
		}
	}
	// Warm-up: the session's first refresh differs from the steady state.
	refresh(batch())
	waitReady()
	for _, timeBuild := range []bool{false, true} {
		name := "fresh"
		if timeBuild {
			name = "ready"
		}
		b.Run(name, func(b *testing.B) {
			batches := make([][][]string, b.N)
			for i := range batches {
				batches[i] = batch()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refresh(batches[i])
				if !timeBuild {
					b.StopTimer()
				}
				waitReady()
				b.StartTimer()
			}
		})
	}
}

// Package exp is the experiment harness: one function per table/figure of
// the paper's evaluation (Sections 7 and 8 and Appendices A.5/A.7),
// regenerating the same rows/series the paper reports over the synthetic
// datasets. The cmd/experiments binary prints these tables; the root
// bench_test.go benchmarks the underlying operations.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"qagview"
	"qagview/internal/movielens"
	"qagview/internal/tpcds"
)

// Env holds generated datasets and caches query results. Building TPC-DS is
// deferred until a TPC-DS experiment asks for it.
type Env struct {
	ML *qagview.DB
	tp *qagview.DB

	// Parallelism bounds the worker pool of precompute experiments.
	// 0 keeps the library default (GOMAXPROCS); 1 forces sequential runs,
	// which reproduces the paper's single-threaded timings — cmd/experiments
	// defaults to 1 so the Figure 7 single-vs-precompute tables stay
	// comparable to the paper (the single-run path has no parallel variant).
	Parallelism int

	mlCfg movielens.Config
	tpCfg tpcds.Config

	cache map[string]*qagview.Result
}

// preOpts translates the environment's parallelism setting into precompute
// options for the figure regenerators.
func (e *Env) preOpts() []qagview.PrecomputeOption {
	if e.Parallelism == 0 {
		return nil
	}
	return []qagview.PrecomputeOption{qagview.Parallelism(e.Parallelism)}
}

// NewEnv generates the MovieLens-like dataset eagerly and remembers the
// TPC-DS configuration for lazy generation.
func NewEnv(mlCfg movielens.Config, tpCfg tpcds.Config) (*Env, error) {
	rel, err := movielens.Generate(mlCfg)
	if err != nil {
		return nil, err
	}
	db := qagview.NewDB()
	if err := db.Register(rel); err != nil {
		return nil, err
	}
	return &Env{ML: db, mlCfg: mlCfg, tpCfg: tpCfg, cache: map[string]*qagview.Result{}}, nil
}

// NewDefaultEnv uses the paper-scale MovieLens 100K configuration and the
// default synthetic TPC-DS size.
func NewDefaultEnv() (*Env, error) {
	return NewEnv(movielens.DefaultConfig(), tpcds.DefaultConfig())
}

// NewSmallEnv is a fast configuration for tests.
func NewSmallEnv() (*Env, error) {
	return NewEnv(
		movielens.Config{Users: 300, Movies: 400, Ratings: 30_000, Seed: 1},
		tpcds.Config{Rows: 40_000, Seed: 7},
	)
}

// TPCDS returns the TPC-DS database, generating it on first use.
func (e *Env) TPCDS() (*qagview.DB, error) {
	if e.tp != nil {
		return e.tp, nil
	}
	rel, err := tpcds.Generate(e.tpCfg)
	if err != nil {
		return nil, err
	}
	db := qagview.NewDB()
	if err := db.Register(rel); err != nil {
		return nil, err
	}
	e.tp = db
	return db, nil
}

// Query runs sql against db with result caching keyed by the SQL text.
func (e *Env) Query(db *qagview.DB, sql string) (*qagview.Result, error) {
	if r, ok := e.cache[sql]; ok {
		return r, nil
	}
	r, err := db.Query(sql)
	if err != nil {
		return nil, err
	}
	e.cache[sql] = r
	return r, nil
}

// MovieLensResult returns the aggregate result over the first m MovieLens
// grouping attributes with the HAVING threshold tuned so the output has
// roughly targetN groups (the paper's experiments fix N = 927, 2087, 6955
// this way). targetN <= 0 disables tuning (threshold 0).
func (e *Env) MovieLensResult(m, targetN int) (*qagview.Result, error) {
	return e.tunedResult(e.ML, "RatingTable", movielensQuery, m, targetN)
}

// TPCDSResult is MovieLensResult for the synthetic store_sales table.
func (e *Env) TPCDSResult(m, targetN int) (*qagview.Result, error) {
	db, err := e.TPCDS()
	if err != nil {
		return nil, err
	}
	return e.tunedResult(db, "store_sales", tpcdsQuery, m, targetN)
}

// AdventureResult is the running example's query (Example 1.1): the first
// four grouping attributes restricted to adventure movies.
func (e *Env) AdventureResult(minCount int) (*qagview.Result, error) {
	q, err := movielens.Query(4, minCount, "genre_adventure = 1")
	if err != nil {
		return nil, err
	}
	return e.Query(e.ML, q)
}

func movielensQuery(m, minCount int) (string, error) {
	return movielens.Query(m, minCount, "")
}

func tpcdsQuery(m, minCount int) (string, error) {
	return tpcds.Query(m, minCount)
}

// tunedResult picks the HAVING threshold so that about targetN groups
// survive: it first fetches per-group counts, then thresholds at the
// targetN-th largest count.
func (e *Env) tunedResult(db *qagview.DB, table string, mkQuery func(m, c int) (string, error),
	m, targetN int) (*qagview.Result, error) {
	if targetN <= 0 {
		q, err := mkQuery(m, 0)
		if err != nil {
			return nil, err
		}
		return e.Query(db, q)
	}
	q0, err := mkQuery(m, 0)
	if err != nil {
		return nil, err
	}
	counts, err := e.Query(db, strings.Replace(q0, "avg(", "count(", 1))
	if err != nil {
		return nil, err
	}
	if counts.N() == 0 {
		return nil, fmt.Errorf("exp: query over %s yields no groups", table)
	}
	cs := append([]float64(nil), counts.Vals...)
	sort.Sort(sort.Reverse(sort.Float64Slice(cs)))
	threshold := 0
	if targetN < len(cs) {
		threshold = int(cs[targetN]) // groups with count > this ≈ targetN
	}
	q, err := mkQuery(m, threshold)
	if err != nil {
		return nil, err
	}
	return e.Query(db, q)
}

// timer measures wall time for harness rows.
type timer struct{ t0 time.Time }

func startTimer() timer { return timer{t0: time.Now()} }

func (t timer) ms() float64 { return float64(time.Since(t.t0).Microseconds()) / 1000 }

func fms(v float64) string { return fmt.Sprintf("%.2f", v) }

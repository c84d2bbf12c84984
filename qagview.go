// Package qagview is a library for summarization and interactive exploration
// of top aggregate query answers, reproducing "Interactive Summarization and
// Exploration of Top Aggregate Query Answers" (Wen, Zhu, Roy, Yang; VLDB
// 2018).
//
// The workflow mirrors the paper's system:
//
//  1. Register relations in a DB and run an aggregate query of the form
//     SELECT g1..gm, aggr(x) AS val FROM t [JOIN t2 ON ...] [WHERE ...]
//     GROUP BY g1..gm [HAVING count(*) > c] ORDER BY val DESC — the ranked
//     output is the answer space S. See docs/SQL.md for the full dialect.
//  2. Build a Summarizer for a coverage budget L; this materializes the
//     cluster semilattice generated by the top-L answers.
//  3. Summarize with parameters (k, L, D): at most k clusters, covering the
//     top-L answers, pairwise at distance >= D, maximizing the average value
//     of all covered answers (the Max-Avg objective of the paper's
//     Definition 4.1). Clusters use '*' don't-care values and expand to the
//     original tuples they cover.
//  4. Optionally Precompute solutions for ranges of k and D to support
//     interactive parameter exploration, retrieving any (k, D) solution from
//     interval-tree storage, and Compare consecutive solutions for display.
package qagview

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"qagview/internal/delta"
	"qagview/internal/engine"
	"qagview/internal/lattice"
	"qagview/internal/precompute"
	"qagview/internal/relation"
	"qagview/internal/sankey"
	"qagview/internal/summarize"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Params are the summarization parameters (k, L, D).
	Params = summarize.Params
	// Solution is a feasible cluster set with its objective value.
	Solution = summarize.Solution
	// Algorithm names a summarization algorithm.
	Algorithm = summarize.Algorithm
	// Option customizes algorithm runs.
	Option = summarize.Option
	// PrecomputeOption customizes precompute runs (parallelism, forwarded
	// algorithm options).
	PrecomputeOption = precompute.Option
	// Stats reports evaluation-work counters.
	Stats = summarize.Stats
	// ReplayStats reports precompute replay-pooling and LCA-memo counters
	// (see Store.ReplayStats).
	ReplayStats = summarize.ReplayStats
	// Result is a ranked aggregate query result.
	Result = engine.Result
	// Profile is the per-operator execution profile attached to Result
	// when the query runs with ExecProfile.
	Profile = engine.Profile
	// OpProfile is one operator's entry in a Profile.
	OpProfile = engine.OpProfile
	// QueryOption customizes query execution (see ExecParallelism); every
	// option yields bit-identical results, so options tune cost, never output.
	QueryOption = engine.ExecOption
	// Store holds precomputed solutions over (k, D) grids.
	Store = precompute.Store
	// Guidance is the parameter-selection series (value vs k per D).
	Guidance = precompute.Guidance
	// Diff is the successive-solution comparison view.
	Diff = sankey.Diff
	// Relation is an in-memory table.
	Relation = relation.Relation
	// Column is one typed column of a Relation.
	Column = relation.Column
	// DeltaBatch is a batch of answer-space edits for incremental
	// maintenance: rendered rows to append and ranks to delete.
	DeltaBatch = lattice.Delta
	// DeltaStats reports what an incremental maintenance pass did: whether
	// the top-L prefix was unchanged (fast path), how many clusters were
	// generated afresh, and whether the keys were re-packed.
	DeltaStats = lattice.DeltaStats
)

// Algorithm names, re-exported.
const (
	BottomUp           = summarize.AlgoBottomUp
	FixedOrder         = summarize.AlgoFixedOrder
	Hybrid             = summarize.AlgoHybrid
	BruteForce         = summarize.AlgoBruteForce
	RandomFixedOrder   = summarize.AlgoRandomFixedOrder
	KMeansFixedOrder   = summarize.AlgoKMeansFixedOrder
	BottomUpMaxLCA     = summarize.AlgoBottomUpMaxLCA
	BottomUpLevelStart = summarize.AlgoBottomUpLevelStart
)

// Option constructors, re-exported.
var (
	WithDelta        = summarize.WithDelta
	WithHybridFactor = summarize.WithHybridFactor
	WithRand         = summarize.WithRand
	WithStats        = summarize.WithStats
)

// Precompute option constructors, re-exported.
var (
	// Parallelism bounds the worker goroutines of the per-D precompute
	// fan-out (default GOMAXPROCS); output is identical at any setting.
	Parallelism = precompute.Parallelism
	// WithSummarizeOptions forwards algorithm options to the precompute's
	// Fixed-Order phase and per-D replays.
	WithSummarizeOptions = precompute.WithSummarize
	// WithPrecomputeContext attaches a context to a Precompute run:
	// cancellation is observed between per-D replays and Precompute returns
	// ctx.Err(). Serving layers use it to abandon sweeps for evicted
	// sessions.
	WithPrecomputeContext = precompute.WithContext
	// WithStoreGeneration stamps a precomputed store with a data generation
	// (see Store.Generation); Live.Precompute stamps automatically, this
	// overrides.
	WithStoreGeneration = precompute.WithGeneration
)

// Query option constructors, re-exported.
var (
	// ExecParallelism bounds the morsel worker pool of the vectorized query
	// executor (default GOMAXPROCS); results are bit-identical at any
	// setting.
	ExecParallelism = engine.ExecParallelism
	// ExecContext attaches a context to query execution; cancellation is
	// observed between morsels.
	ExecContext = engine.ExecContext
	// ExecHashJoin forces the binary hash-join plan for multi-table queries
	// (overriding the cyclicity-based auto selection), for ablations.
	ExecHashJoin = engine.ExecHashJoin
	// ExecGenericJoin forces the worst-case-optimal (leapfrog) join path for
	// multi-table queries, for ablations.
	ExecGenericJoin = engine.ExecGenericJoin
	// ExecProfile collects a per-operator execution profile into
	// Result.Profile (EXPLAIN ANALYZE-style; observation only, output is
	// bit-identical with it on or off).
	ExecProfile = engine.ExecProfile
)

// DB is a named collection of in-memory relations that aggregate queries run
// against; it plays the role of the paper's PostgreSQL backend.
type DB struct {
	tables map[string]*relation.Relation
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*relation.Relation)}
}

// Register adds a relation under its own name, replacing any previous
// relation with that name.
func (db *DB) Register(r *relation.Relation) error {
	if r == nil {
		return fmt.Errorf("qagview: nil relation")
	}
	if r.Name() == "" {
		return fmt.Errorf("qagview: relation has no name")
	}
	db.tables[r.Name()] = r
	return nil
}

// ErrUnknownTable marks catalog lookups of tables that were never
// registered; callers distinguish it with errors.Is (serving layers map it
// to 404 rather than 400).
var ErrUnknownTable = errors.New("unknown table")

// Table implements engine.Catalog. Unknown names fail with ErrUnknownTable
// and list the registered tables, so a typo in a multi-table FROM clause
// points at what the catalog actually holds.
func (db *DB) Table(name string) (*relation.Relation, error) {
	r, ok := db.tables[name]
	if !ok {
		if len(db.tables) == 0 {
			return nil, fmt.Errorf("qagview: %w %q (no tables registered)", ErrUnknownTable, name)
		}
		return nil, fmt.Errorf("qagview: %w %q (registered tables: %s)",
			ErrUnknownTable, name, strings.Join(db.Tables(), ", "))
	}
	return r, nil
}

// Tables lists registered table names, sorted.
func (db *DB) Tables() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Query parses and executes an aggregate query on the vectorized executor
// (see ExecParallelism and friends for options).
func (db *DB) Query(sql string, opts ...QueryOption) (*Result, error) {
	return engine.ExecuteSQL(db, sql, opts...)
}

// Summarizer owns the materialized cluster space for one query result and
// one coverage budget L (the initialization step of Section 7.1, performed
// once per query).
type Summarizer struct {
	space *lattice.Space
	ix    *lattice.Index
}

// NewSummarizer builds the cluster space for the top-L tuples of a query
// result. The result must contain at least one row, and L must be within
// [1, N]. Clusters get their coverage when an algorithm first reaches them.
func NewSummarizer(res *Result, L int) (*Summarizer, error) {
	if res == nil {
		return nil, fmt.Errorf("qagview: nil result")
	}
	return NewSummarizerFromRows(res.GroupBy, res.Rows, res.Vals, L)
}

// NewSummarizerFromRows builds a Summarizer directly from rendered rows and
// values (for callers whose scores do not come from a SQL query, e.g. a
// domain expert, as Section 3 notes).
func NewSummarizerFromRows(attrs []string, rows [][]string, vals []float64, L int) (*Summarizer, error) {
	space, err := lattice.NewSpace(attrs, rows, vals)
	if err != nil {
		return nil, err
	}
	ix, err := lattice.BuildIndex(space, L)
	if err != nil {
		return nil, err
	}
	return &Summarizer{space: space, ix: ix}, nil
}

// L returns the coverage budget the summarizer was initialized with.
func (s *Summarizer) L() int { return s.ix.L }

// N returns the number of answer tuples.
func (s *Summarizer) N() int { return s.space.N() }

// M returns the number of grouping attributes.
func (s *Summarizer) M() int { return s.space.M() }

// Attrs returns the grouping attribute names.
func (s *Summarizer) Attrs() []string { return s.space.Attrs }

// NumClusters returns the size of the generated cluster space.
func (s *Summarizer) NumClusters() int { return s.ix.NumClusters() }

// ClustersFilled returns how many clusters have been given their coverage
// so far: the clusters the algorithms run on this summarizer reached.
func (s *Summarizer) ClustersFilled() int { return s.ix.FilledClusters() }

// ApproxBytes estimates the summarizer's resident memory: cluster keys and
// key table, the posting bitmaps, the filled cluster records with their
// coverage lists and bitmaps, and the answer-space tuples. It grows as
// clusters are filled and is safe to call while they are. Cache layers (the
// qagviewd session LRU) use it for byte-budget accounting; it is an
// estimate, not an exact allocator figure. Store.SizeBytes is the companion
// figure for precomputed sweeps.
func (s *Summarizer) ApproxBytes() int64 {
	return s.ix.Bytes() + int64(s.space.N())*int64(s.space.M()+2)*4 // tuples + vals
}

// Summarize runs the named algorithm for the given parameters. Params.L may
// be at most the summarizer's L.
func (s *Summarizer) Summarize(algo Algorithm, p Params, opts ...Option) (*Solution, error) {
	return summarize.Run(algo, s.ix, p, opts...)
}

// LowerBound returns the trivial all-star solution.
func (s *Summarizer) LowerBound() *Solution { return summarize.LowerBound(s.ix) }

// Validate checks a solution against Definition 4.1 for the parameters.
func (s *Summarizer) Validate(p Params, sol *Solution) error {
	return summarize.Validate(s.ix, p, sol)
}

// Precompute materializes solutions for every k in [kMin, kMax] and every D
// in ds, as the interactive exploration mode of Section 6. The per-D replays
// run on a worker pool (see Parallelism); the result is independent of the
// parallelism level.
func (s *Summarizer) Precompute(kMin, kMax int, ds []int, opts ...PrecomputeOption) (*Store, error) {
	return precompute.Run(s.ix, s.ix.L, kMin, kMax, ds, opts...)
}

// Compare builds the comparison view between two solutions (Appendix A.7).
func (s *Summarizer) Compare(old, new *Solution) (*Diff, error) {
	return sankey.NewDiff(s.ix, old, new, s.ix.L)
}

// DecodeStore reloads a precomputed store previously saved with
// Store.Encode. The summarizer must have been built from the same query
// result and L (index construction is deterministic, so rebuilding it from
// the persisted result is sufficient).
func (s *Summarizer) DecodeStore(r io.Reader) (*Store, error) {
	return precompute.Decode(r, s.ix)
}

// Live couples a Summarizer with the incremental-maintenance subsystem
// (internal/delta): it absorbs changes to the underlying answer set without
// rebuilding the cluster space, warm-starts summarization sweepers across
// data generations, and stamps precomputed stores with a monotonically
// increasing data version. A refresh publishes the new summarizer at once;
// the sweeper's warm-up onto it runs at the start of the next Precompute.
//
// A Live is single-writer: Refresh and ApplyDelta must be serialized by the
// caller, and an in-flight Precompute must have returned (cancel its context
// and wait) before the next refresh, which migrates the sweeper state the
// sweep is using. The Summarizer snapshots it publishes are immutable and
// freely shared: readers keep using an old generation's summarizer while the
// next one is prepared.
type Live struct {
	m   *delta.Maintainer
	sum *Summarizer
}

// NewLive wraps a freshly built Summarizer at data version 1. Options are
// summarize options applied to every sweeper the maintainer constructs.
func NewLive(s *Summarizer, opts ...Option) *Live {
	return &Live{m: delta.New(s.ix, opts...), sum: s}
}

// Summarizer returns the current-generation summarizer (an immutable
// snapshot; superseded snapshots stay valid).
func (l *Live) Summarizer() *Summarizer { return l.sum }

// DataVersion returns the current data generation: 1 at construction,
// bumped by every refresh or delta that changed anything.
func (l *Live) DataVersion() uint64 { return l.m.Generation() }

// Refresh reconciles the live state with a re-run query result: any change
// against the current answer set — appends, deletes, changed values,
// reordered ranks — is applied through the incremental index maintenance,
// bit-identical to a from-scratch rebuild.
// changed reports whether anything was applied (the data version bumps
// exactly when it did).
func (l *Live) Refresh(res *Result) (DeltaStats, bool, error) {
	return l.RefreshCtx(context.Background(), res)
}

// RefreshCtx is Refresh under a caller context: traced requests (see
// internal/obs) record the refresh and its rebase as spans. The context
// carries observability only — a refresh is not cancellable midway.
func (l *Live) RefreshCtx(ctx context.Context, res *Result) (DeltaStats, bool, error) {
	if res == nil {
		return DeltaStats{}, false, fmt.Errorf("qagview: nil result")
	}
	stats, changed, err := l.m.RefreshCtx(ctx, res.Rows, res.Vals)
	if err != nil {
		return stats, false, err
	}
	if changed {
		l.sum = &Summarizer{space: l.m.Index().Space, ix: l.m.Index()}
	}
	return stats, changed, nil
}

// ApplyDelta applies a prebuilt batch of answer-tuple appends and deletes
// (for callers that know their delta without re-running a query).
func (l *Live) ApplyDelta(d DeltaBatch) (DeltaStats, error) {
	stats, err := l.m.Apply(d)
	if err != nil {
		return stats, err
	}
	l.sum = &Summarizer{space: l.m.Index().Space, ix: l.m.Index()}
	return stats, nil
}

// Precompute materializes the (k, D) store for the current generation,
// stamped with the data version, reusing the warm sweeper chain: after
// refreshes, the sweeper is warmed onto the current index first, and replay
// states and (when every refresh since kept cluster ids) LCA memos from the
// previous sweep are reused instead of re-allocated.
func (l *Live) Precompute(kMin, kMax int, ds []int, opts ...PrecomputeOption) (*Store, error) {
	return l.m.Precompute(kMin, kMax, ds, opts...)
}

// ClusterRow describes one output cluster for display.
type ClusterRow struct {
	// Pattern holds the attribute values, "*" for don't-care.
	Pattern []string
	// Avg is the cluster's average value.
	Avg float64
	// Size is the number of covered answer tuples.
	Size int
	// Members lists covered tuples as (rank, rendered row, value), by rank.
	Members []MemberRow
}

// MemberRow is one original answer tuple inside a cluster.
type MemberRow struct {
	Rank int // 1-based rank in the original answer list
	Row  []string
	Val  float64
}

// Rows renders a solution's clusters for display, expanded with their
// members (the two-layer output of Figure 1b/1c).
func (s *Summarizer) Rows(sol *Solution) []ClusterRow {
	out := make([]ClusterRow, 0, sol.Size())
	for _, c := range sol.Clusters {
		row := ClusterRow{
			Pattern: s.space.Render(c.Pat),
			Avg:     c.Avg(),
			Size:    c.Size(),
		}
		for _, t := range c.Cov {
			row.Members = append(row.Members, MemberRow{
				Rank: int(t) + 1,
				Row:  s.space.Render(s.space.Tuples[t]),
				Val:  s.space.Vals[t],
			})
		}
		out = append(out, row)
	}
	return out
}

// Format renders a solution as an aligned text table; expand includes the
// second layer with every covered tuple.
func (s *Summarizer) Format(sol *Solution, expand bool) string {
	var sb strings.Builder
	header := append(append([]string{}, s.space.Attrs...), "avg val", "size")
	widths := make([]int, len(header))
	type line struct {
		cells  []string
		member bool
	}
	var lines []line
	addLine := func(cells []string, member bool) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
		lines = append(lines, line{cells, member})
	}
	addLine(header, false)
	for _, row := range s.Rows(sol) {
		cells := append(append([]string{}, row.Pattern...),
			fmt.Sprintf("%.3f", row.Avg), fmt.Sprintf("%d", row.Size))
		addLine(cells, false)
		if expand {
			for _, m := range row.Members {
				cells := append(append([]string{}, m.Row...),
					fmt.Sprintf("%.3f", m.Val), fmt.Sprintf("#%d", m.Rank))
				addLine(cells, true)
			}
		}
	}
	for _, l := range lines {
		for i, c := range l.cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if l.member && i == 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ReadCSV loads a CSV file into a relation; kinds maps column names to
// types (unlisted columns are text).
var ReadCSV = relation.ReadCSV

// Relation constructors, re-exported for building tables in code.
var (
	// FromColumns assembles a named relation from typed columns.
	FromColumns = relation.FromColumns
	// StringColumn builds a categorical column.
	StringColumn = relation.StringCol
	// IntColumn builds an integer column.
	IntColumn = relation.IntCol
	// FloatColumn builds a float column.
	FloatColumn = relation.FloatCol
)

// Table snapshot codec, re-exported for the durable serving layer: a
// snapshot persists a relation's columns plus the data generation it
// covers, and reloads value-identical (WAL replay on top of it is then
// bit-identical to the no-crash run).
var (
	// WriteRelationSnapshot serializes a relation and its data generation.
	WriteRelationSnapshot = relation.WriteSnapshot
	// ReadRelationSnapshot reloads a relation snapshot with its generation.
	ReadRelationSnapshot = relation.ReadSnapshot
)

// Kind re-exports column kinds for ReadCSV.
type Kind = relation.Kind

// Column kinds.
const (
	KindString = relation.KindString
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
)

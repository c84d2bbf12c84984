package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"

	"qagview/internal/obs"
	"qagview/internal/relation"
)

// Result is the output relation S of an aggregate query: ranked group-by
// tuples, each with a numeric value. Rows are in the query's ORDER BY order
// (for the paper's template, descending value), so row i has rank i+1.
type Result struct {
	// GroupBy holds the m group-by attribute names.
	GroupBy []string
	// ValName is the alias of the aggregate output column.
	ValName string
	// Table is the first FROM relation the query ran against, kept for
	// callers that predate joins.
	Table string
	// Tables lists every distinct base table the query read, in FROM order
	// (len 1 for single-table queries); serving layers use it to tie
	// sessions to all tables whose updates invalidate them.
	Tables []string
	// Rows holds one rendered group-by tuple per output row.
	Rows [][]string
	// Vals holds the aggregate value per output row, aligned with Rows.
	Vals []float64
	// Profile holds the per-operator execution profile when the query ran
	// with ExecProfile; nil otherwise. Profiles observe, they never alter
	// output: the equivalence suites compare result fields with profiling
	// on and off.
	Profile Profile `json:"profile,omitempty"`
}

// N returns the number of result tuples.
func (r *Result) N() int { return len(r.Rows) }

// aggState accumulates one group's aggregate and HAVING aggregates in the
// reference executor.
type aggState struct {
	row  []string
	sum  float64
	cnt  int64
	min  float64
	max  float64
	hsum []float64
	hcnt []int64
	hmin []float64
	hmax []float64
}

// Catalog resolves table names for Execute. The root qagview.DB type
// implements it.
type Catalog interface {
	// Table returns the named relation, or an error if unknown.
	Table(name string) (*relation.Relation, error)
}

// joinMode selects the multi-table execution path.
type joinMode int

const (
	// joinAuto picks the hash path for acyclic join graphs and the
	// worst-case-optimal generic path for cyclic ones.
	joinAuto joinMode = iota
	// joinHash forces the left-deep binary hash-join plan everywhere.
	joinHash
	// joinGeneric forces the worst-case-optimal leapfrog path everywhere.
	joinGeneric
)

// execConfig collects execution options.
type execConfig struct {
	par       int
	ctx       context.Context
	reference bool
	joins     joinMode
	profile   bool
	prof      *execProf // non-nil iff profile
}

// ExecOption customizes query execution. The zero configuration runs the
// vectorized executor with GOMAXPROCS morsel workers; every option produces
// bit-identical results (see the equivalence tests), so options tune cost,
// never output.
type ExecOption func(*execConfig)

// ExecParallelism bounds the morsel worker pool of the vectorized executor
// (default GOMAXPROCS). n <= 1 runs the same pipeline on the calling
// goroutine; output is bit-identical at every setting.
func ExecParallelism(n int) ExecOption {
	return func(c *execConfig) { c.par = n }
}

// ExecContext attaches a context to the execution: cancellation is observed
// between morsels and Execute returns ctx.Err(). Serving layers use it to
// abandon scans for evicted sessions.
func ExecContext(ctx context.Context) ExecOption {
	return func(c *execConfig) { c.ctx = ctx }
}

// ExecReference forces the row-at-a-time reference executor that the
// vectorized pipeline is proven bit-identical to, for ablations and
// differential tests.
func ExecReference() ExecOption {
	return func(c *execConfig) { c.reference = true }
}

// ExecHashJoin forces the left-deep binary hash-join plan even on cyclic
// join graphs, where the auto rule would pick the worst-case-optimal path.
// Output is bit-identical either way; the binary plan can materialize
// asymptotically larger intermediates (the blowup BenchmarkJoinTriangle
// measures).
func ExecHashJoin() ExecOption {
	return func(c *execConfig) { c.joins = joinHash }
}

// ExecGenericJoin forces the worst-case-optimal leapfrog path even on
// acyclic join graphs, where the auto rule would pick hash joins. Output is
// bit-identical either way.
func ExecGenericJoin() ExecOption {
	return func(c *execConfig) { c.joins = joinGeneric }
}

// ExecProfile collects a per-operator execution profile (rows in/out,
// batches, wall time) into Result.Profile. Profiling observes only — the
// result rows and values are bit-identical with it on or off.
func ExecProfile() ExecOption {
	return func(c *execConfig) { c.profile = true }
}

// Execute runs a parsed query against the catalog. Multi-table queries join
// their FROM relations first (see join.go) and aggregate over the joined
// rows; both forms run the same vectorized pipeline and stay bit-identical
// to the reference executor at every parallelism.
func Execute(cat Catalog, q *Query, opts ...ExecOption) (*Result, error) {
	res, _, err := executeTraced(cat, q, newExecConfig(opts), false)
	return res, err
}

// newExecConfig applies opts over the defaults.
func newExecConfig(opts []ExecOption) execConfig {
	cfg := execConfig{par: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.profile {
		cfg.prof = newExecProf()
	}
	return cfg
}

// executeTraced runs the query under an "engine.execute" span, keeping the
// group table as a Retained when retain is set and the query is foldable.
func executeTraced(cat Catalog, q *Query, cfg execConfig, retain bool) (*Result, *Retained, error) {
	ctx, sp := obs.StartSpan(cfg.ctx, "engine.execute")
	if sp != nil {
		sp.SetAttr("table", q.From().Table)
		sp.SetInt("parallelism", int64(cfg.par))
		cfg.ctx = ctx
	}
	res, kept, err := execute(cat, q, cfg, retain)
	sp.End()
	if err == nil && cfg.prof != nil {
		res.Profile = cfg.prof.snapshot()
	}
	return res, kept, err
}

func execute(cat Catalog, q *Query, cfg execConfig, retain bool) (*Result, *Retained, error) {
	if len(q.Joins) > 0 {
		res, err := executeJoin(cat, q, cfg)
		return res, nil, err
	}
	rel, err := cat.Table(q.Table)
	if err != nil {
		return nil, nil, err
	}
	p, vp, err := planOp(cfg, q, []*relation.Relation{rel}, rel.Name(),
		func(name string) (colRef, bool) { return lookupCol(rel, q, name) })
	if err != nil {
		return nil, nil, err
	}
	if cfg.reference {
		res, err := executeProfiledRef(p, nil, cfg)
		return res, nil, err
	}
	if retain && foldable(q) {
		return retainVec(vp, rel, cfg)
	}
	res, err := executeVec(vp, cfg)
	return res, nil, err
}

// planOp runs the "plan" operator: it resolves the aggregation against the
// FROM relations and, for the vectorized pipeline, the group columns'
// base-table dictionary codes. The first query over a new or recovered
// table builds those dictionaries here, so profiles and traces attribute
// the cost; rows_in is the row count the dictionaries cover, summed over
// the group columns.
func planOp(cfg execConfig, q *Query, rels []*relation.Relation, from string, lookup func(string) (colRef, bool)) (*execPlan, *vecPlan, error) {
	st := cfg.prof.op("plan")
	t0 := profNow(st)
	_, sp := obs.StartSpan(cfg.ctx, "plan")
	p, err := planQuery(q, rels, from, lookup)
	var vp *vecPlan
	if err == nil && !cfg.reference {
		vp = newVecPlan(p)
		var rows int64
		for _, g := range p.groupCols {
			rows += int64(rels[g.tab].NumRows())
		}
		st.addRows(rows, 0)
		sp.SetInt("rows_in", rows)
	}
	sp.End()
	st.addWall(t0)
	return p, vp, err
}

// executeProfiledRef runs the reference executor, reporting it as a
// single opaque operator when profiling (the row-at-a-time oracle has no
// vectorized operator structure to expose).
func executeProfiledRef(p *execPlan, tuples [][]int32, cfg execConfig) (*Result, error) {
	st := cfg.prof.op("reference")
	t0 := profNow(st)
	_, sp := obs.StartSpan(cfg.ctx, "reference")
	res, err := executeRef(p, tuples)
	sp.End()
	st.addWall(t0)
	if err == nil {
		st.addRows(int64(inputRows(p, tuples)), int64(len(res.Rows)))
	}
	return res, err
}

// inputRows is the aggregation's input size: the join's tuple count, or the
// single table's row count when tuples is nil.
func inputRows(p *execPlan, tuples [][]int32) int {
	if tuples == nil {
		return p.rels[0].NumRows()
	}
	return len(tuples[0])
}

// ExecuteSQL parses and runs sql against the catalog.
func ExecuteSQL(cat Catalog, sql string, opts ...ExecOption) (*Result, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return Execute(cat, q, opts...)
}

// colRef is a column reference resolved to a base column: column idx of
// FROM table tab. name is the spelling type errors quote — the base column
// name on single-table queries, the exact reference text on joins.
type colRef struct {
	tab, idx int
	col      *relation.Column
	name     string
}

// predBind is a WHERE conjunct resolved against a base column, ready for
// either executor to compile (closures for the reference, batch kernels
// for the vectorized pipeline).
type predBind struct {
	tab int // FROM position of col's table
	col *relation.Column
	op  CmpOp
	lit Literal
}

// execPlan is a query resolved and validated against its FROM relations:
// every executor and join path runs from the same plan, so they accept and
// reject exactly the same queries with the same errors.
type execPlan struct {
	rels       []*relation.Relation // FROM order; one entry for a single-table query
	q          *Query
	groupCols  []colRef
	aggCol     colRef   // col nil for count(*)
	havingCols []colRef // col nil for count(*)
	preds      []predBind
}

// lookupCol resolves a (possibly qualified) column reference on a
// single-table query; a qualifier naming the FROM table (or its alias) is
// stripped.
func lookupCol(rel *relation.Relation, q *Query, name string) (colRef, bool) {
	idx := rel.ColumnIndex(name)
	if i := strings.IndexByte(name, '.'); idx < 0 && i >= 0 && name[:i] == q.From().Name() {
		idx = rel.ColumnIndex(name[i+1:])
	}
	if idx < 0 {
		return colRef{}, false
	}
	c := rel.Column(idx)
	return colRef{idx: idx, col: c, name: c.Name}, true
}

// planQuery resolves the query's columns through lookup and validates
// types; from names the FROM clause in resolution errors.
func planQuery(q *Query, rels []*relation.Relation, from string, lookup func(string) (colRef, bool)) (*execPlan, error) {
	p := &execPlan{rels: rels, q: q}
	p.groupCols = make([]colRef, len(q.GroupBy))
	for i, name := range q.GroupBy {
		c, ok := lookup(name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown group-by column %q in table %q", name, from)
		}
		p.groupCols[i] = c
	}
	if q.Agg.Arg != "*" {
		c, ok := lookup(q.Agg.Arg)
		if !ok {
			return nil, fmt.Errorf("engine: unknown aggregate column %q in table %q", q.Agg.Arg, from)
		}
		if c.col.Kind == relation.KindString {
			// count(textcol) is rejected too: this dialect has no NULLs, so it
			// could only mean count(*) — and letting it through would make the
			// executors gather float values from a text column.
			return nil, fmt.Errorf("engine: aggregate %s over text column %q (use count(*) to count rows)", q.Agg.Fn, c.name)
		}
		p.aggCol = c
	} else if q.Agg.Fn != AggCount {
		return nil, fmt.Errorf("engine: %s(*) is not supported", q.Agg.Fn)
	}
	for _, pr := range q.Where {
		c, ok := lookup(pr.Column)
		if !ok {
			return nil, fmt.Errorf("engine: unknown WHERE column %q in table %q", pr.Column, from)
		}
		if pr.Lit.IsNum {
			if c.col.Kind == relation.KindString {
				return nil, fmt.Errorf("engine: numeric comparison against text column %q", c.name)
			}
		} else {
			if c.col.Kind != relation.KindString {
				return nil, fmt.Errorf("engine: string comparison against %s column %q", c.col.Kind, c.name)
			}
			if pr.Op != OpEq && pr.Op != OpNe {
				return nil, fmt.Errorf("engine: operator %s is not supported for text column %q", pr.Op, c.name)
			}
		}
		p.preds = append(p.preds, predBind{tab: c.tab, col: c.col, op: pr.Op, lit: pr.Lit})
	}
	p.havingCols = make([]colRef, len(q.Having))
	for i, h := range q.Having {
		if h.Agg.Arg == "*" {
			if h.Agg.Fn != AggCount {
				return nil, fmt.Errorf("engine: %s(*) is not supported in HAVING", h.Agg.Fn)
			}
			continue
		}
		c, ok := lookup(h.Agg.Arg)
		if !ok {
			return nil, fmt.Errorf("engine: unknown HAVING column %q", h.Agg.Arg)
		}
		if c.col.Kind == relation.KindString {
			return nil, fmt.Errorf("engine: aggregate %s over text column %q in HAVING (use count(*) to count rows)", h.Agg.Fn, c.name)
		}
		p.havingCols[i] = c
	}
	if q.OrderBy != "" && q.OrderBy != q.Agg.Alias {
		return nil, fmt.Errorf("engine: ORDER BY %q must reference the aggregate alias %q", q.OrderBy, q.Agg.Alias)
	}
	return p, nil
}

// executeRef is the row-at-a-time reference executor: per-row predicate
// closures, a rendered string key per row, and a Go map of group states.
// Its input rows are the join's tuples in canonical order, or the single
// table's rows when tuples is nil; WHERE runs here, after the join. The
// vectorized pipeline (executeVec) — base-table dictionary codes, WHERE
// pushed below the join — is proven bit-identical to it; it stays as the
// differential-testing oracle.
func executeRef(p *execPlan, tuples [][]int32) (*Result, error) {
	q := p.q
	preds := compilePredicates(p.preds)

	// Group. Keys are length-prefixed rendered values: a plain separator
	// byte would merge distinct groups whose values contain the separator
	// (see TestExecuteGroupKeyNulSeparator).
	groups := make(map[string]*aggState)
	var order []string // group keys in first-seen order, for determinism
	var kb []byte      // reused key scratch
	// cur holds the input row's base row per FROM table.
	cur := make([]int, len(p.rels))
	for row := 0; row < inputRows(p, tuples); row++ {
		for t := range cur {
			if tuples == nil {
				cur[t] = row
			} else {
				cur[t] = int(tuples[t][row])
			}
		}
		match := true
		for k, pr := range preds {
			if !pr(cur[p.preds[k].tab]) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		kb = kb[:0]
		for _, c := range p.groupCols {
			s := c.col.StringAt(cur[c.tab])
			kb = binary.AppendUvarint(kb, uint64(len(s)))
			kb = append(kb, s...)
		}
		st, ok := groups[string(kb)]
		if !ok {
			vals := make([]string, len(p.groupCols))
			for i, c := range p.groupCols {
				vals[i] = c.col.StringAt(cur[c.tab])
			}
			st = &aggState{
				row:  vals,
				min:  math.Inf(1),
				max:  math.Inf(-1),
				hsum: make([]float64, len(q.Having)),
				hcnt: make([]int64, len(q.Having)),
				hmin: make([]float64, len(q.Having)),
				hmax: make([]float64, len(q.Having)),
			}
			for i := range st.hmin {
				st.hmin[i] = math.Inf(1)
				st.hmax[i] = math.Inf(-1)
			}
			key := string(kb)
			groups[key] = st
			order = append(order, key)
		}
		st.cnt++
		if c := p.aggCol; c.col != nil {
			v, err := c.col.FloatAt(cur[c.tab])
			if err != nil {
				return nil, err
			}
			st.sum += v
			if v < st.min {
				st.min = v
			}
			if v > st.max {
				st.max = v
			}
		}
		for i, c := range p.havingCols {
			if c.col == nil {
				st.hcnt[i]++
				continue
			}
			v, err := c.col.FloatAt(cur[c.tab])
			if err != nil {
				return nil, err
			}
			st.hcnt[i]++
			st.hsum[i] += v
			if v < st.hmin[i] {
				st.hmin[i] = v
			}
			if v > st.hmax[i] {
				st.hmax[i] = v
			}
		}
	}

	// HAVING filter and final value.
	res := &Result{GroupBy: append([]string(nil), q.GroupBy...), ValName: q.Agg.Alias, Table: q.Table, Tables: q.Tables()}
	for _, key := range order {
		st := groups[key]
		keep := true
		for i, h := range q.Having {
			v := finalize(h.Agg.Fn, st.hsum[i], st.hcnt[i], st.hmin[i], st.hmax[i])
			if !cmpFloat(v, h.Op, h.Num) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		res.Rows = append(res.Rows, st.row)
		res.Vals = append(res.Vals, finalize(q.Agg.Fn, st.sum, st.cnt, st.min, st.max))
	}
	orderAndLimit(q, res, nil)
	return res, nil
}

// orderAndLimit applies ORDER BY and LIMIT in place, to ids too when it is
// non-nil (the group id of each row), and returns ids. Sorting is stable so
// first-seen group order breaks ties deterministically; both executors
// produce that order, so their sorted output is bit-identical too.
func orderAndLimit(q *Query, res *Result, ids []int32) []int32 {
	if q.OrderBy != "" {
		idx := make([]int, len(res.Rows))
		for i := range idx {
			idx[i] = i
		}
		// The comparison reports only "before" (-1) or not (0), which is
		// all the insertion-and-merge stable sort consults, so ties and
		// NaN values land exactly where sort.SliceStable put them.
		slices.SortStableFunc(idx, func(a, b int) int {
			if q.Desc && res.Vals[a] > res.Vals[b] || !q.Desc && res.Vals[a] < res.Vals[b] {
				return -1
			}
			return 0
		})
		rows := make([][]string, len(idx))
		vals := make([]float64, len(idx))
		var sorted []int32
		if ids != nil {
			sorted = make([]int32, len(idx))
		}
		for i, j := range idx {
			rows[i], vals[i] = res.Rows[j], res.Vals[j]
			if ids != nil {
				sorted[i] = ids[j]
			}
		}
		res.Rows, res.Vals, ids = rows, vals, sorted
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
		res.Vals = res.Vals[:q.Limit]
		if ids != nil {
			ids = ids[:q.Limit]
		}
	}
	return ids
}

func finalize(fn AggFunc, sum float64, cnt int64, min, max float64) float64 {
	switch fn {
	case AggAvg:
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	case AggSum:
		return sum
	case AggCount:
		return float64(cnt)
	case AggMin:
		return min
	case AggMax:
		return max
	default:
		return 0
	}
}

func cmpFloat(a float64, op CmpOp, b float64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	default:
		return false
	}
}

// compilePredicates turns resolved WHERE conjuncts into per-row closures.
// Numeric literals compare numerically against numeric columns; string
// literals compare against string columns.
func compilePredicates(preds []predBind) []func(int) bool {
	out := make([]func(int) bool, 0, len(preds))
	for _, p := range preds {
		p := p
		if p.lit.IsNum {
			col := p.col
			out = append(out, func(row int) bool {
				v, _ := col.FloatAt(row)
				return cmpFloat(v, p.op, p.lit.Num)
			})
			continue
		}
		col := p.col
		out = append(out, func(row int) bool {
			eq := col.Str[row] == p.lit.Str
			if p.op == OpEq {
				return eq
			}
			return !eq
		})
	}
	return out
}

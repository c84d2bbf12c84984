package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"qagview/internal/obs"
	"qagview/internal/pattern"
	"qagview/internal/relation"
)

// This file implements multi-table execution. A join query runs in four
// stages: planJoin resolves the FROM relations, ON conditions and column
// references (producing every name-resolution error) and planQuery
// resolves the aggregation onto base columns; the optimized paths evaluate
// every WHERE conjunct on its own base table (each is `column op literal`
// on one FROM table), producing ascending selection vectors; a join
// algorithm computes the matching row-id tuples — one row-id column per
// FROM position — in the canonical order, lexicographic by FROM-position
// row ids, the order the nested-loop reference produces naturally; and the
// vectorized pipeline aggregates straight off those row-id columns, reading
// group keys from the base tables' cached dictionary codes (vexec.go).
// Three algorithms produce the same tuples bit-identically:
//
//   - nestedLoopTuples: FROM-order nested loops over every row, the
//     reference oracle; the reference executor applies WHERE after it;
//   - hashTuples: a left-deep binary hash-join plan over the selected rows,
//     with a morsel-parallel probe (the default for acyclic join graphs);
//   - leapfrogTuples (wcoj.go): the worst-case-optimal generic join over
//     tries of the selected rows (the default for cyclic graphs, where
//     binary plans can materialize asymptotically larger intermediates).
//
// Selections keep row ids ascending, so a join over them emits exactly the
// reference's filtered tuples in the same order.
//
// Join keys use value identity per equivalence class of equated columns:
// text classes compare strings, all-int classes compare exact int64s, and
// classes containing a float column compare float64 bit patterns with every
// NaN collapsed to one key (so NaN joins NaN and ±0 stay distinct, matching
// GROUP BY semantics; see docs/SQL.md).

// ErrAmbiguousColumn reports an unqualified column reference that resolves
// in more than one FROM relation.
var ErrAmbiguousColumn = errors.New("ambiguous column")

// joinKeyKind is the key domain of one equivalence class of equated columns.
type joinKeyKind int

const (
	kkString joinKeyKind = iota
	kkInt
	kkFloat
)

// boundCond is one resolved ON conjunct, normalized so rt is the newly
// joined (higher FROM position) table.
type boundCond struct {
	lt, lc int // earlier table and column index
	rt, rc int // newly joined table and column index
	lcol   *relation.Column
	rcol   *relation.Column
	key    joinKeyKind
}

// match evaluates the condition between one row of each side under the
// class's key domain.
func (c *boundCond) match(lrow, rrow int32) bool {
	switch c.key {
	case kkString:
		return c.lcol.Str[lrow] == c.rcol.Str[rrow]
	case kkInt:
		return c.lcol.Int[lrow] == c.rcol.Int[rrow]
	default:
		return numKeyBits(c.lcol, lrow) == numKeyBits(c.rcol, rrow)
	}
}

// joinPlan is a multi-table query resolved and validated against the
// catalog.
type joinPlan struct {
	q      *Query
	rels   []*relation.Relation // FROM order
	names  []string             // display name per FROM entry (alias or table)
	conds  []boundCond          // all ON conjuncts, clause order
	steps  [][]int              // conds evaluated when joining table i+1
	refs   []colRef             // distinct column references, first-use order
	cyclic bool

	// Variable classes (connected components of equated columns), filled by
	// assignKeyKinds for the worst-case-optimal path: per-class occurrence
	// lists in first-appearance order and the class key domain.
	varOccs [][][2]int // per class: (table, column) occurrences
	varKind []joinKeyKind
}

var canonNaNBits = math.Float64bits(math.NaN())

// floatKeyBits is the float join-key domain: the value's bit pattern with
// every NaN payload collapsed, so NaN = NaN holds and -0 stays distinct
// from +0 — value identity, exactly as GROUP BY groups floats.
func floatKeyBits(v float64) uint64 {
	if v != v {
		return canonNaNBits
	}
	return math.Float64bits(v)
}

// numKeyBits renders a numeric column value into the float key domain; int
// columns convert exactly like Column.FloatAt.
func numKeyBits(c *relation.Column, row int32) uint64 {
	if c.Kind == relation.KindInt {
		return floatKeyBits(float64(c.Int[row]))
	}
	return floatKeyBits(c.Float[row])
}

// planJoin resolves a multi-table query: FROM relations through the
// catalog, ON conditions into normalized bound conjuncts with key domains,
// and every column reference the aggregation reads.
func planJoin(cat Catalog, q *Query) (*joinPlan, error) {
	jp := &joinPlan{q: q}
	addTable := func(tr TableRef) error {
		name := tr.Name()
		for _, n := range jp.names {
			if n == name {
				return fmt.Errorf("engine: duplicate table name or alias %q in FROM; alias one of the uses", name)
			}
		}
		rel, err := cat.Table(tr.Table)
		if err != nil {
			return err
		}
		jp.rels = append(jp.rels, rel)
		jp.names = append(jp.names, name)
		return nil
	}
	if err := addTable(q.From()); err != nil {
		return nil, err
	}
	for _, j := range q.Joins {
		if err := addTable(j.Table); err != nil {
			return nil, err
		}
	}

	jp.steps = make([][]int, len(q.Joins))
	for i, j := range q.Joins {
		newT := i + 1
		scope := newT + 1
		for _, on := range j.On {
			lt, lc, err := jp.resolveRef(on.Left, scope)
			if err != nil {
				return nil, err
			}
			rt, rc, err := jp.resolveRef(on.Right, scope)
			if err != nil {
				return nil, err
			}
			if lt == rt {
				return nil, fmt.Errorf("engine: ON condition %s = %s relates table %q to itself", on.Left, on.Right, jp.names[lt])
			}
			if lt == newT {
				lt, lc, rt, rc = rt, rc, lt, lc
			}
			if rt != newT {
				return nil, fmt.Errorf("engine: ON condition %s = %s for JOIN %q must reference the joined table", on.Left, on.Right, jp.names[newT])
			}
			jp.steps[i] = append(jp.steps[i], len(jp.conds))
			jp.conds = append(jp.conds, boundCond{
				lt: lt, lc: lc, rt: rt, rc: rc,
				lcol: jp.rels[lt].Column(lc), rcol: jp.rels[rt].Column(rc),
			})
		}
	}
	if err := jp.assignKeyKinds(); err != nil {
		return nil, err
	}
	jp.cyclic = jp.computeCyclic()
	if err := jp.collectRefs(); err != nil {
		return nil, err
	}
	return jp, nil
}

// resolveRef resolves a (possibly qualified) column reference against the
// first scope FROM entries.
func (jp *joinPlan) resolveRef(ref string, scope int) (int, int, error) {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		qual, bare := ref[:i], ref[i+1:]
		for t := 0; t < scope; t++ {
			if jp.names[t] == qual {
				c := jp.rels[t].ColumnIndex(bare)
				if c < 0 {
					return 0, 0, fmt.Errorf("engine: unknown column %q in table %q", bare, qual)
				}
				return t, c, nil
			}
		}
		return 0, 0, fmt.Errorf("engine: unknown table or alias %q in column reference %q (tables in scope: %s)",
			qual, ref, strings.Join(jp.names[:scope], ", "))
	}
	ft, fc := -1, -1
	var in []string
	for t := 0; t < scope; t++ {
		if c := jp.rels[t].ColumnIndex(ref); c >= 0 {
			in = append(in, jp.names[t])
			ft, fc = t, c
		}
	}
	switch len(in) {
	case 0:
		return 0, 0, fmt.Errorf("engine: unknown column %q (tables in scope: %s)", ref, strings.Join(jp.names[:scope], ", "))
	case 1:
		return ft, fc, nil
	default:
		return 0, 0, fmt.Errorf("engine: %w %q: present in tables %s; qualify it", ErrAmbiguousColumn, ref, strings.Join(in, ", "))
	}
}

// assignKeyKinds unions the (table, column) occurrences of all ON
// conditions into equivalence classes — equality is transitive, so every
// column in a class must share one key domain — and assigns each condition
// its class's domain: text, exact int64, or float bit identity when any
// member is a float column. Equating text with numeric columns is a plan
// error. The class structure is also recorded for the worst-case-optimal
// path, which enumerates classes as join variables.
func (jp *joinPlan) assignKeyKinds() error {
	id := make(map[[2]int]int)
	var occs [][2]int
	var kinds []relation.Kind
	var parent []int
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	occ := func(t, c int) int {
		k := [2]int{t, c}
		if i, ok := id[k]; ok {
			return i
		}
		i := len(parent)
		id[k] = i
		occs = append(occs, k)
		kinds = append(kinds, jp.rels[t].Column(c).Kind)
		parent = append(parent, i)
		return i
	}
	condOcc := make([][2]int, len(jp.conds))
	for i := range jp.conds {
		a := occ(jp.conds[i].lt, jp.conds[i].lc)
		b := occ(jp.conds[i].rt, jp.conds[i].rc)
		condOcc[i] = [2]int{a, b}
		parent[find(a)] = find(b)
	}
	n := len(parent)
	strAt := make([]int, n)
	numAt := make([]int, n)
	hasFloat := make([]bool, n)
	for i := range strAt {
		strAt[i], numAt[i] = -1, -1
	}
	for i := 0; i < n; i++ {
		r := find(i)
		if kinds[i] == relation.KindString {
			if strAt[r] < 0 {
				strAt[r] = i
			}
		} else {
			if numAt[r] < 0 {
				numAt[r] = i
			}
			if kinds[i] == relation.KindFloat {
				hasFloat[r] = true
			}
		}
	}
	colName := func(i int) string {
		return jp.names[occs[i][0]] + "." + jp.rels[occs[i][0]].Column(occs[i][1]).Name
	}
	classOf := make([]int, n) // root -> class id in first-cond order
	for i := range classOf {
		classOf[i] = -1
	}
	for ci := range jp.conds {
		r := find(condOcc[ci][0])
		if strAt[r] >= 0 && numAt[r] >= 0 {
			return fmt.Errorf("engine: ON equates text column %s with %s column %s",
				colName(strAt[r]), kinds[numAt[r]], colName(numAt[r]))
		}
		switch {
		case strAt[r] >= 0:
			jp.conds[ci].key = kkString
		case hasFloat[r]:
			jp.conds[ci].key = kkFloat
		default:
			jp.conds[ci].key = kkInt
		}
		if classOf[r] < 0 {
			classOf[r] = len(jp.varOccs)
			jp.varOccs = append(jp.varOccs, nil)
			jp.varKind = append(jp.varKind, jp.conds[ci].key)
		}
	}
	for i := 0; i < n; i++ {
		v := classOf[find(i)]
		jp.varOccs[v] = append(jp.varOccs[v], occs[i])
	}
	return nil
}

// computeCyclic reports whether the join graph — FROM entries as nodes,
// distinct condition pairs as edges — contains a cycle. Connectivity is
// guaranteed by construction (every ON conjunct relates the joined table to
// an earlier one), so cyclic means #distinct edges > #nodes - 1.
func (jp *joinPlan) computeCyclic() bool {
	parent := make([]int, len(jp.rels))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	seen := make(map[[2]int]bool, len(jp.conds))
	cyclic := false
	for _, c := range jp.conds {
		a, b := c.lt, c.rt
		if a > b {
			a, b = b, a
		}
		e := [2]int{a, b}
		if seen[e] {
			continue
		}
		seen[e] = true
		ra, rb := find(a), find(b)
		if ra == rb {
			cyclic = true
		} else {
			parent[ra] = rb
		}
	}
	return cyclic
}

// collectRefs resolves every column reference the aggregation reads, in
// first-use order, deduplicated by reference text, so name-resolution
// errors precede planQuery's type errors.
func (jp *joinPlan) collectRefs() error {
	add := func(ref string) error {
		if _, ok := jp.lookupRef(ref); ok || ref == "" || ref == "*" {
			return nil
		}
		t, c, err := jp.resolveRef(ref, len(jp.rels))
		if err != nil {
			return err
		}
		jp.refs = append(jp.refs, colRef{tab: t, idx: c, col: jp.rels[t].Column(c), name: ref})
		return nil
	}
	for _, g := range jp.q.GroupBy {
		if err := add(g); err != nil {
			return err
		}
	}
	if err := add(jp.q.Agg.Arg); err != nil {
		return err
	}
	for _, w := range jp.q.Where {
		if err := add(w.Column); err != nil {
			return err
		}
	}
	for _, h := range jp.q.Having {
		if err := add(h.Agg.Arg); err != nil {
			return err
		}
	}
	return nil
}

// lookupRef returns the resolved column of a reference text collectRefs
// saw; type errors quote that text.
func (jp *joinPlan) lookupRef(ref string) (colRef, bool) {
	for _, rf := range jp.refs {
		if rf.name == ref {
			return rf, true
		}
	}
	return colRef{}, false
}

// executeJoin plans and runs a multi-table query end to end.
func executeJoin(cat Catalog, q *Query, cfg execConfig) (*Result, error) {
	ctx, jsp := obs.StartSpan(cfg.ctx, "join")
	if jsp != nil {
		cfg.ctx = ctx
	}
	defer jsp.End()

	plSt := cfg.prof.op("join.plan")
	t0 := profNow(plSt)
	_, psp := obs.StartSpan(cfg.ctx, "join.plan")
	jp, err := planJoin(cat, q)
	psp.End()
	plSt.addWall(t0)
	if err != nil {
		return nil, err
	}
	// Plan the aggregation before paying for the join: type and ORDER BY
	// errors surface up front, identically on every path.
	p, vp, err := planOp(cfg, q, jp.rels, strings.Join(jp.names, "+"), jp.lookupRef)
	if err != nil {
		return nil, err
	}
	var tuples [][]int32
	switch {
	case cfg.reference:
		tuples, err = jp.tuplesOp(cfg, "join.nestedloop", jp.nestedLoopTuples)
	case cfg.joins == joinGeneric || (cfg.joins == joinAuto && jp.cyclic):
		sels := p.selections(cfg)
		tuples, err = jp.tuplesOp(cfg, "join.leapfrog", func(ctx context.Context) ([][]int32, error) {
			return jp.leapfrogTuples(ctx, sels)
		})
	default:
		tuples, err = jp.hashTuples(cfg, p.selections(cfg))
	}
	if err != nil {
		return nil, err
	}
	assertJoinTuples(tuples, jp.rels)
	if cfg.reference {
		return executeProfiledRef(p, tuples, cfg)
	}
	vp.tuples = tuples
	return executeVec(vp, cfg)
}

// selections pushes WHERE below the join: it evaluates every conjunct on
// its base table with the filter kernels, under a "join.filter" operator.
// sels[t] lists the passing rows of FROM table t, ascending; it is nil when
// no conjunct reads t (every row passes) and non-nil, possibly empty,
// otherwise.
func (p *execPlan) selections(cfg execConfig) [][]int32 {
	sels := make([][]int32, len(p.rels))
	if len(p.preds) == 0 {
		return sels
	}
	st := cfg.prof.op("join.filter")
	t0 := profNow(st)
	_, sp := obs.StartSpan(cfg.ctx, "join.filter")
	var in, out int64
	for _, pb := range p.preds {
		if sels[pb.tab] == nil {
			n := p.rels[pb.tab].NumRows()
			in += int64(n)
			sels[pb.tab] = filterRange(pb, 0, int32(n), []int32{})
		} else {
			sels[pb.tab] = filterSel(pb, sels[pb.tab])
		}
	}
	for _, sel := range sels {
		out += int64(len(sel))
	}
	sp.SetInt("rows_in", in)
	sp.SetInt("rows_out", out)
	sp.End()
	st.addWall(t0)
	st.addRows(in, out)
	return sels
}

// tuplesOp runs one whole-join tuple producer (the nested-loop reference
// or the worst-case-optimal leapfrog) under a span and profile operator.
func (jp *joinPlan) tuplesOp(cfg execConfig, name string, f func(context.Context) ([][]int32, error)) ([][]int32, error) {
	st := cfg.prof.op(name)
	t0 := profNow(st)
	_, sp := obs.StartSpan(cfg.ctx, name)
	tuples, err := f(cfg.ctx)
	sp.End()
	st.addWall(t0)
	if err != nil {
		return nil, err
	}
	n := 0
	if len(tuples) > 0 {
		n = len(tuples[0])
	}
	st.addRows(0, int64(n))
	sp.SetInt("tuples", int64(n))
	return tuples, nil
}

// ---- nested-loop reference ----

// nestedLoopTuples is the reference join: FROM-order nested loops over
// ascending row ids, evaluating every ON conjunct as a per-row comparison
// at the step that binds its later table. Its output order — lexicographic
// by the FROM-position row-id tuple — is the canonical order the optimized
// paths are proven bit-identical to.
func (jp *joinPlan) nestedLoopTuples(ctx context.Context) ([][]int32, error) {
	nt := len(jp.rels)
	tuples := make([][]int32, nt)
	cur := make([]int32, nt)
	var rec func(depth int) error
	rec = func(depth int) error {
		if depth == nt {
			for t := range cur {
				tuples[t] = append(tuples[t], cur[t])
			}
			return nil
		}
		var conds []int
		if depth >= 1 {
			conds = jp.steps[depth-1]
		}
		n := jp.rels[depth].NumRows()
		for r := 0; r < n; r++ {
			if depth == 0 && r%morselRows == 0 && ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			ok := true
			for _, ci := range conds {
				c := &jp.conds[ci]
				if !c.match(cur[c.lt], int32(r)) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur[depth] = int32(r)
			if err := rec(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return tuples, nil
}

// ---- binary hash join ----

// valIndex maps join-key values to dense build-side codes, in one of the
// three key domains.
type valIndex struct {
	kind joinKeyKind
	s    map[string]int32
	i    map[int64]int32
	f    map[uint64]int32
}

// lookup returns the build code of the value at (c, row), or -1 when the
// value does not occur on the build side.
func (v *valIndex) lookup(c *relation.Column, row int32) int32 {
	switch v.kind {
	case kkString:
		if code, ok := v.s[c.Str[row]]; ok {
			return code
		}
	case kkInt:
		if code, ok := v.i[c.Int[row]]; ok {
			return code
		}
	default:
		if code, ok := v.f[numKeyBits(c, row)]; ok {
			return code
		}
	}
	return -1
}

// buildJoinCodes recodes one build-side column into a dense join-key
// domain. The column's native dictionary already is that domain for text
// and exact-int classes (and for float columns under float identity, since
// float dictionaries key on canonical-NaN bit patterns); only an int column
// joining under float equality needs a fresh dictionary, because distinct
// int64s beyond 2^53 can collapse to one float key.
func buildJoinCodes(rel *relation.Relation, col int, kind joinKeyKind) ([]int32, int, *valIndex) {
	c := rel.Column(col)
	if kind == kkFloat && c.Kind == relation.KindInt {
		vi := &valIndex{kind: kkFloat, f: make(map[uint64]int32, 64)}
		codes := make([]int32, len(c.Int))
		for i, v := range c.Int {
			b := floatKeyBits(float64(v))
			id, ok := vi.f[b]
			if !ok {
				id = int32(len(vi.f))
				vi.f[b] = id
			}
			codes[i] = id
		}
		return codes, len(vi.f), vi
	}
	d := rel.DictCodes(col)
	g := rel.CodeGroups(col)
	vi := &valIndex{kind: kind}
	switch kind {
	case kkString:
		vi.s = make(map[string]int32, d.Card)
		for code := 0; code < d.Card; code++ {
			vi.s[c.Str[g.Rep(int32(code))]] = int32(code)
		}
	case kkInt:
		vi.i = make(map[int64]int32, d.Card)
		for code := 0; code < d.Card; code++ {
			vi.i[c.Int[g.Rep(int32(code))]] = int32(code)
		}
	default:
		vi.f = make(map[uint64]int32, d.Card)
		for code := 0; code < d.Card; code++ {
			vi.f[floatKeyBits(c.Float[g.Rep(int32(code))])] = int32(code)
		}
	}
	return d.Codes, d.Card, vi
}

// hashTuples runs the left-deep binary plan: tuples over the first table
// start as its ascending selected row ids, and every JOIN step builds a
// key table over the new table's selected rows keyed by its ON columns'
// join codes, packed by a pattern.Codec over the codes' cardinalities, and
// probes it with the current tuples, morsel-parallel with a shard-ordered
// merge. Probing tuples in order and listing each key's build rows
// ascending keeps the output in canonical lexicographic order at every
// worker count.
func (jp *joinPlan) hashTuples(cfg execConfig, sels [][]int32) ([][]int32, error) {
	base := sels[0]
	if base == nil {
		base = make([]int32, jp.rels[0].NumRows())
		for i := range base {
			base[i] = int32(i)
		}
	}
	cur := [][]int32{base}
	for step := range jp.steps {
		next, err := jp.hashStep(cur, step, sels[step+1], cfg)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// hashStep joins the current tuples with FROM table step+1, inserting only
// its rows in sel (every row when sel is nil).
func (jp *joinPlan) hashStep(cur [][]int32, step int, sel []int32, cfg execConfig) ([][]int32, error) {
	newT := step + 1
	nProbe := len(cur[0])
	if nProbe == 0 {
		return make([][]int32, newT+1), nil
	}
	build := jp.rels[newT]
	condIdx := jp.steps[step]
	nc := len(condIdx)

	// Instrumentation handles for this step; nil (and alloc-free) when
	// neither profiling nor tracing is on.
	var bSt, prSt *opStats
	if cfg.prof != nil {
		bSt = cfg.prof.op("join.build(" + jp.names[newT] + ")")
		prSt = cfg.prof.op("join.probe(" + jp.names[newT] + ")")
	}
	stepParent := obs.FromContext(cfg.ctx)
	bsp := stepParent.Child("join.build")
	bsp.SetAttr("table", jp.names[newT])
	tBuild := profNow(bSt)

	// Build-side join codes and probe-side translations, one per condition:
	// trans[k] maps the probe column's native dictionary codes to build
	// codes (-1 = value absent from the build side), resolved once per
	// distinct probe value through one representative row.
	codes := make([][]int32, nc)
	cards := make([]int, nc)
	trans := make([][]int32, nc)
	probeCodes := make([][]int32, nc)
	probeTab := make([]int, nc)
	for k, ci := range condIdx {
		c := &jp.conds[ci]
		bCodes, bCard, vi := buildJoinCodes(build, c.rc, c.key)
		codes[k], cards[k] = bCodes, bCard
		pd := jp.rels[c.lt].DictCodes(c.lc)
		pg := jp.rels[c.lt].CodeGroups(c.lc)
		tr := make([]int32, pd.Card)
		for pc := 0; pc < pd.Card; pc++ {
			tr[pc] = vi.lookup(c.lcol, pg.Rep(int32(pc)))
		}
		trans[k] = tr
		probeCodes[k] = pd.Codes
		probeTab[k] = c.lt
	}

	// Build table: every selected build row's key gets a dense key id, and
	// the rows are counting-sorted by key id. Rows are scanned ascending, so
	// every key's row list rows[start[g]:start[g+1]] is ascending and probe
	// output stays in canonical order.
	codec := pattern.NewCodec(cards)
	nb := build.NumRows()
	if sel != nil {
		nb = len(sel)
	}
	buildRow := func(k int) int32 {
		if sel == nil {
			return int32(k)
		}
		return sel[k]
	}
	// The build side has at most min(nb, Π cards) distinct keys.
	distinct := 1
	for _, c := range cards {
		distinct *= c
		if distinct >= nb {
			break
		}
	}
	keys := pattern.NewTable(codec.Words(), min(nb, distinct))
	key := make([]uint64, codec.Words())
	tup := make(pattern.Pattern, nc)
	keyOf := make([]int32, nb)
	for i := range keyOf {
		r := buildRow(i)
		for k := range codes {
			tup[k] = codes[k][r]
		}
		codec.Pack(tup, key)
		keyOf[i], _ = keys.Insert(key, int32(keys.Len()))
	}
	start := make([]int32, keys.Len()+1)
	for _, g := range keyOf {
		start[g+1]++
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	rows := make([]int32, nb)
	fill := append([]int32(nil), start[:keys.Len()]...)
	for i, g := range keyOf {
		rows[fill[g]] = buildRow(i)
		fill[g]++
	}

	bsp.SetInt("rows", int64(nb))
	bsp.End()
	bSt.observe(int64(nb), int64(nb), tBuild)
	psp := stepParent.Child("join.probe")
	psp.SetAttr("table", jp.names[newT])

	// probe translates one morsel of tuples and appends every match to dst.
	probe := func(lo, hi int, dst [][]int32) [][]int32 {
		key := make([]uint64, codec.Words())
		tup := make(pattern.Pattern, nc)
		for i := lo; i < hi; i++ {
			miss := false
			for k := range trans {
				bc := trans[k][probeCodes[k][cur[probeTab[k]][i]]]
				if bc < 0 {
					miss = true
					break
				}
				tup[k] = bc
			}
			if miss {
				continue
			}
			codec.Pack(tup, key)
			g, ok := keys.Find(key)
			if !ok {
				continue
			}
			for _, br := range rows[start[g]:start[g+1]] {
				for t := 0; t < newT; t++ {
					dst[t] = append(dst[t], cur[t][i])
				}
				dst[newT] = append(dst[newT], br)
			}
		}
		return dst
	}

	// Each morsel probes into its own output, sized for its probe count;
	// workers pull morsels off a shared counter, mirroring vexec's runPar.
	nM := (nProbe + morselRows - 1) / morselRows
	results := make([][][]int32, nM)
	probeMorsel := func(i int) {
		lo := i * morselRows
		hi := min(lo+morselRows, nProbe)
		t0 := profNow(prSt)
		out := probe(lo, hi, sizedTuples(newT+1, hi-lo))
		prSt.observe(int64(hi-lo), int64(len(out[newT])), t0)
		results[i] = out
	}
	var cancelled atomic.Bool
	if workers := min(cfg.par, nM); workers <= 1 {
		for i := 0; i < nM; i++ {
			if cfg.ctx != nil && cfg.ctx.Err() != nil {
				cancelled.Store(true)
				break
			}
			probeMorsel(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= nM {
						return
					}
					if cfg.ctx != nil && cfg.ctx.Err() != nil {
						cancelled.Store(true)
						return
					}
					probeMorsel(i)
				}
			}()
		}
		wg.Wait() // probe counters and any enclosing trace stay complete
	}
	if cancelled.Load() {
		psp.End()
		return nil, cfg.ctx.Err()
	}
	// Concatenating in morsel order gives the canonical tuple order at every
	// worker count.
	total := 0
	for _, r := range results {
		total += len(r[newT])
	}
	out := sizedTuples(newT+1, total)
	for _, r := range results {
		for t := range out {
			out[t] = append(out[t], r[t]...)
		}
	}
	psp.SetInt("tuples", int64(total))
	psp.End()
	return out, nil
}

// sizedTuples returns nt empty row-id columns with capacity for n tuples.
// A morsel's probe output starts sized for its probe count, which a key
// join (each probe matching at most one build row) never outgrows.
func sizedTuples(nt, n int) [][]int32 {
	out := make([][]int32, nt)
	for t := range out {
		out[t] = make([]int32, 0, n)
	}
	return out
}

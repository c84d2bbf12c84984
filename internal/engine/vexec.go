package engine

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"qagview/internal/obs"
	"qagview/internal/pattern"
	"qagview/internal/relation"
)

// This file implements the vectorized, morsel-parallel executor behind
// Execute. Its input is a sequence of rows cut into fixed-size morsels:
// a single table's rows, or a join's tuples, where every column reads its
// base table through that FROM position's row-id column (so a morsel
// [lo, hi) of a join reads table t's rows tuples[t][lo:hi], and no joined
// relation is ever materialized). Workers pull morsels from a shared
// counter and run the per-row work that parallelizes — predicate kernels
// producing selection vectors (single-table scans; a join's WHERE was
// pushed below it), base-table dictionary codes packed into group keys
// (pattern.Codec), per-morsel grouping into a local key table
// (pattern.Table), and gathers of the aggregate columns — while one
// deterministic merge consumes the morsels in shard order and folds them
// into the global group table.
//
// The merge is what makes the output bit-identical to the row-at-a-time
// reference (executeRef) at every worker count: morsels are contiguous
// ascending input ranges merged in order, so groups appear in the
// reference's first-seen order, and all float accumulation (sums, HAVING
// aggregates) happens inside the merge, row by row in input order —
// workers never add two floats. The merge's hash-probe cost is one
// global-table probe per morsel-local group (not per row); its per-row cost
// is array arithmetic.
//
// Morsel buffers and the global table are pooled and reset across calls, so
// steady-state execution (session refreshes re-running their query on every
// data-generation bump) allocates only the output.

// morselRows is the shard size: big enough to amortize per-morsel overhead,
// small enough that a morsel's selection and key vectors stay cache-resident.
const morselRows = 4096

// vecPlan extends the resolved plan with the vectorized execution state:
// per-group-column base-table dictionary codes, the packed-key layout
// derived from their cardinalities, and a join's row-id columns.
type vecPlan struct {
	*execPlan
	codes  [][]int32 // base-table dictionary codes per group column
	codec  *pattern.Codec
	tuples [][]int32 // row ids per FROM position; nil for a single-table scan
	from   int       // first input row: 0, or on a fold the first appended row
}

// newVecPlan resolves the group columns' dictionary codes and derives the
// key codec from their cardinalities.
func newVecPlan(p *execPlan) *vecPlan {
	m := len(p.groupCols)
	vp := &vecPlan{execPlan: p, codes: make([][]int32, m)}
	cards := make([]int, m)
	for j, c := range p.groupCols {
		d := p.rels[c.tab].DictCodes(c.idx)
		vp.codes[j] = d.Codes
		cards[j] = d.Card
	}
	vp.codec = pattern.NewCodec(cards)
	return vp
}

// baseRows returns the rows of FROM table tab that the morsel [lo, hi)
// reads: the selection vector itself on a single-table scan, a slice of
// the row-id column on a join.
func (vp *vecPlan) baseRows(b *morselBuf, tab int, lo, hi int32) []int32 {
	if vp.tuples == nil {
		return b.sel
	}
	return vp.tuples[tab][lo:hi]
}

// baseRow is baseRows for the single input row i.
func (vp *vecPlan) baseRow(tab int, i int32) int {
	if vp.tuples == nil {
		return int(i)
	}
	return int(vp.tuples[tab][i])
}

// ---- predicate kernels ----

// filterMorsel computes the selection vector of rows in [lo, hi) passing
// every WHERE conjunct: the first kernel scans the range, later kernels
// refine the selection in place. No per-row closure calls, no per-row error
// checks — column kinds were validated at plan time.
func (vp *vecPlan) filterMorsel(lo, hi int32, sel []int32) []int32 {
	if len(vp.preds) == 0 {
		for r := lo; r < hi; r++ {
			sel = append(sel, r)
		}
		return sel
	}
	sel = filterRange(vp.preds[0], lo, hi, sel)
	for _, pb := range vp.preds[1:] {
		if len(sel) == 0 {
			break
		}
		sel = filterSel(pb, sel)
	}
	return sel
}

func filterRange(p predBind, lo, hi int32, out []int32) []int32 {
	switch p.col.Kind {
	case relation.KindInt:
		return filterNumRange(p.col.Int, p.op, p.lit.Num, lo, hi, out)
	case relation.KindFloat:
		return filterNumRange(p.col.Float, p.op, p.lit.Num, lo, hi, out)
	default:
		return filterStrRange(p.col.Str, p.op == OpEq, p.lit.Str, lo, hi, out)
	}
}

func filterSel(p predBind, sel []int32) []int32 {
	switch p.col.Kind {
	case relation.KindInt:
		return filterNumSel(p.col.Int, p.op, p.lit.Num, sel)
	case relation.KindFloat:
		return filterNumSel(p.col.Float, p.op, p.lit.Num, sel)
	default:
		return filterStrSel(p.col.Str, p.op == OpEq, p.lit.Str, sel)
	}
}

// filterNumRange appends the rows of [lo, hi) whose value compares true to
// out. Ints convert to float64 exactly like Column.FloatAt, so comparison
// semantics match the reference executor bit for bit.
func filterNumRange[T int64 | float64](vals []T, op CmpOp, lit float64, lo, hi int32, out []int32) []int32 {
	switch op {
	case OpEq:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) == lit {
				out = append(out, r)
			}
		}
	case OpNe:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) != lit {
				out = append(out, r)
			}
		}
	case OpLt:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) < lit {
				out = append(out, r)
			}
		}
	case OpLe:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) <= lit {
				out = append(out, r)
			}
		}
	case OpGt:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) > lit {
				out = append(out, r)
			}
		}
	case OpGe:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) >= lit {
				out = append(out, r)
			}
		}
	}
	return out
}

func filterNumSel[T int64 | float64](vals []T, op CmpOp, lit float64, sel []int32) []int32 {
	k := 0
	switch op {
	case OpEq:
		for _, r := range sel {
			if float64(vals[r]) == lit {
				sel[k] = r
				k++
			}
		}
	case OpNe:
		for _, r := range sel {
			if float64(vals[r]) != lit {
				sel[k] = r
				k++
			}
		}
	case OpLt:
		for _, r := range sel {
			if float64(vals[r]) < lit {
				sel[k] = r
				k++
			}
		}
	case OpLe:
		for _, r := range sel {
			if float64(vals[r]) <= lit {
				sel[k] = r
				k++
			}
		}
	case OpGt:
		for _, r := range sel {
			if float64(vals[r]) > lit {
				sel[k] = r
				k++
			}
		}
	case OpGe:
		for _, r := range sel {
			if float64(vals[r]) >= lit {
				sel[k] = r
				k++
			}
		}
	}
	return sel[:k]
}

func filterStrRange(vals []string, eq bool, lit string, lo, hi int32, out []int32) []int32 {
	if eq {
		for r := lo; r < hi; r++ {
			if vals[r] == lit {
				out = append(out, r)
			}
		}
	} else {
		for r := lo; r < hi; r++ {
			if vals[r] != lit {
				out = append(out, r)
			}
		}
	}
	return out
}

func filterStrSel(vals []string, eq bool, lit string, sel []int32) []int32 {
	k := 0
	if eq {
		for _, r := range sel {
			if vals[r] == lit {
				sel[k] = r
				k++
			}
		}
	} else {
		for _, r := range sel {
			if vals[r] != lit {
				sel[k] = r
				k++
			}
		}
	}
	return sel[:k]
}

// ---- morsel-local state ----

// morselBuf holds one morsel's vectorized state, pooled across morsels and
// Execute calls.
type morselBuf struct {
	sel      []int32   // selected row indexes, ascending (single-table scans)
	keys     []uint64  // packed group key per input row, Words() words each
	localOf  []int32   // morsel-local group id per input row
	aggVals  []float64 // gathered aggregate-column values per input row
	havVals  [][]float64
	firstRow []int32 // first input row per local group

	table     pattern.Table // packed key -> morsel-local group id
	groupKeys []uint64      // local groups' keys in first-seen order
}

var bufPool = sync.Pool{New: func() any { return new(morselBuf) }}

// reset truncates the first-seen bookkeeping; the per-row vectors are fully
// overwritten by the next processMorsel and keep their capacity.
func (b *morselBuf) reset() {
	b.sel = b.sel[:0]
	b.firstRow = b.firstRow[:0]
	b.groupKeys = b.groupKeys[:0]
}

func sizedI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func sizedU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func sizedF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// processMorsel runs the parallelizable pipeline stages on input rows
// [lo, hi): filter (single-table scans only), key, local-group, gather. It
// touches only b and read-only plan state, so any number of workers can
// run it concurrently.
func (vp *vecPlan) processMorsel(b *morselBuf, lo, hi int32) {
	b.reset()
	n := int(hi - lo)
	if vp.tuples == nil {
		b.sel = vp.filterMorsel(lo, hi, b.sel)
		n = len(b.sel)
	}
	b.localOf = sizedI32(b.localOf, n)

	// Key build, column at a time: or-in each attribute's dictionary code at
	// its field. Codes never collide with the codec's Star sentinel, so
	// packing is injective.
	w := vp.codec.Words()
	b.keys = sizedU64(b.keys, n*w)
	clear(b.keys)
	for j, codes := range vp.codes {
		vp.codec.PackColumn(b.keys, j, codes, vp.baseRows(b, vp.groupCols[j].tab, lo, hi))
	}
	// A morsel has at most morselRows groups, so the local table never
	// regrows.
	b.table.Reset(w, morselRows)
	b.table.InsertAll(b.keys, b.localOf)
	for i, id := range b.localOf {
		if int(id) == len(b.firstRow) {
			first := lo + int32(i)
			if vp.tuples == nil {
				first = b.sel[i]
			}
			b.firstRow = append(b.firstRow, first)
			for _, k := range b.keys[i*w : (i+1)*w] {
				b.groupKeys = append(b.groupKeys, k)
			}
		}
	}

	if c := vp.aggCol; c.col != nil {
		b.aggVals = sizedF64(b.aggVals, n)
		gather(c.col, vp.baseRows(b, c.tab, lo, hi), b.aggVals)
	}
	for cap(b.havVals) < len(vp.havingCols) {
		b.havVals = append(b.havVals[:cap(b.havVals)], nil)
	}
	b.havVals = b.havVals[:len(vp.havingCols)]
	for h, c := range vp.havingCols {
		if c.col == nil {
			b.havVals[h] = nil // count(*): no values to gather
			continue
		}
		b.havVals[h] = sizedF64(b.havVals[h], n)
		gather(c.col, vp.baseRows(b, c.tab, lo, hi), b.havVals[h])
	}
}

// gather copies the numeric column's values at the selected rows into out;
// int columns convert exactly like Column.FloatAt. Kinds were validated at
// plan time, so no per-row error path.
func gather(c *relation.Column, sel []int32, out []float64) {
	if c.Kind == relation.KindInt {
		for i, r := range sel {
			out[i] = float64(c.Int[r])
		}
	} else {
		for i, r := range sel {
			out[i] = c.Float[r]
		}
	}
}

// ---- global group table and deterministic merge ----

// groupTable is the merge-side aggregation state: a key table from packed
// keys to dense group ids, plus columnar per-group accumulators.
// Single-writer: only the merge goroutine touches it.
type groupTable struct {
	keys pattern.Table

	firstRow []int32 // first input row per group: row id or tuple index
	cnt      []int64
	sum      []float64
	min      []float64
	max      []float64
	hcnt     [][]int64
	hsum     [][]float64
	hmin     [][]float64
	hmax     [][]float64

	remap []int32 // per-morsel local-to-global group id scratch
}

var tablePool = sync.Pool{New: func() any { return new(groupTable) }}

// reset truncates the per-group accumulators, keeping capacity for reuse.
func (t *groupTable) reset() {
	t.firstRow = t.firstRow[:0]
	t.cnt = t.cnt[:0]
	t.sum = t.sum[:0]
	t.min = t.min[:0]
	t.max = t.max[:0]
	for i := range t.hcnt {
		t.hcnt[i] = t.hcnt[i][:0]
		t.hsum[i] = t.hsum[i][:0]
		t.hmin[i] = t.hmin[i][:0]
		t.hmax[i] = t.hmax[i][:0]
	}
	t.remap = t.remap[:0]
}

// resetFor readies a pooled table for a query with the given key width and
// nh HAVING conjuncts.
func (t *groupTable) resetFor(words, nh int) {
	t.reset()
	t.keys.Reset(words, 512)
	for cap(t.hcnt) < nh {
		t.hcnt = append(t.hcnt[:cap(t.hcnt)], nil)
		t.hsum = append(t.hsum[:cap(t.hsum)], nil)
		t.hmin = append(t.hmin[:cap(t.hmin)], nil)
		t.hmax = append(t.hmax[:cap(t.hmax)], nil)
	}
	t.hcnt = t.hcnt[:nh]
	t.hsum = t.hsum[:nh]
	t.hmin = t.hmin[:nh]
	t.hmax = t.hmax[:nh]
	for i := 0; i < nh; i++ {
		t.hcnt[i] = t.hcnt[i][:0]
		t.hsum[i] = t.hsum[i][:0]
		t.hmin[i] = t.hmin[i][:0]
		t.hmax[i] = t.hmax[i][:0]
	}
}

// addGroup appends a fresh group, initialized exactly like the reference's
// aggState (min/max seeded with infinities).
func (t *groupTable) addGroup(firstRow int32) {
	t.firstRow = append(t.firstRow, firstRow)
	t.cnt = append(t.cnt, 0)
	t.sum = append(t.sum, 0)
	t.min = append(t.min, math.Inf(1))
	t.max = append(t.max, math.Inf(-1))
	for i := range t.hcnt {
		t.hcnt[i] = append(t.hcnt[i], 0)
		t.hsum[i] = append(t.hsum[i], 0)
		t.hmin[i] = append(t.hmin[i], math.Inf(1))
		t.hmax[i] = append(t.hmax[i], math.Inf(-1))
	}
}

// mergeMorsel folds one processed morsel into the global state. Called in
// morsel order, it reproduces the reference executor's row order exactly:
// global group ids are assigned in first-seen order and every float
// accumulates row by row.
func (t *groupTable) mergeMorsel(vp *vecPlan, b *morselBuf) {
	t.remap = sizedI32(t.remap, len(b.firstRow))
	t.keys.InsertAll(b.groupKeys, t.remap)
	for li, gid := range t.remap {
		if int(gid) == len(t.firstRow) {
			t.addGroup(b.firstRow[li])
		}
	}
	hasAgg := vp.aggCol.col != nil
	nh := len(vp.havingCols)
	for i := range b.localOf {
		g := t.remap[b.localOf[i]]
		t.cnt[g]++
		if hasAgg {
			v := b.aggVals[i]
			t.sum[g] += v
			if v < t.min[g] {
				t.min[g] = v
			}
			if v > t.max[g] {
				t.max[g] = v
			}
		}
		for h := 0; h < nh; h++ {
			t.hcnt[h][g]++
			if hv := b.havVals[h]; hv != nil {
				v := hv[i]
				t.hsum[h][g] += v
				if v < t.hmin[h][g] {
					t.hmin[h][g] = v
				}
				if v > t.hmax[h][g] {
					t.hmax[h][g] = v
				}
			}
		}
	}
}

// finalizeResult renders the merged groups: HAVING filter, group rows from
// the base rows of each group's first input row, then the shared ORDER BY /
// LIMIT pass. ids holds each output row's group id.
func (t *groupTable) finalizeResult(vp *vecPlan) (res *Result, ids []int32) {
	q := vp.q
	res = &Result{GroupBy: append([]string(nil), q.GroupBy...), ValName: q.Agg.Alias, Table: q.Table, Tables: q.Tables()}
	ids = []int32{}
	for g := range t.firstRow {
		keep := true
		for h, hv := range q.Having {
			v := finalize(hv.Agg.Fn, t.hsum[h][g], t.hcnt[h][g], t.hmin[h][g], t.hmax[h][g])
			if !cmpFloat(v, hv.Op, hv.Num) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		row := make([]string, len(vp.groupCols))
		for j, c := range vp.groupCols {
			row[j] = c.col.StringAt(vp.baseRow(c.tab, t.firstRow[g]))
		}
		res.Rows = append(res.Rows, row)
		res.Vals = append(res.Vals, finalize(q.Agg.Fn, t.sum[g], t.cnt[g], t.min[g], t.max[g]))
		ids = append(ids, int32(g))
	}
	ids = orderAndLimit(q, res, ids)
	return res, ids
}

// ---- driver ----

// executeVec runs the vectorized pipeline, checking the pooled group table
// out and back in around the actual run so the table is returned exactly
// once on every path (success or cancellation).
func executeVec(vp *vecPlan, cfg execConfig) (*Result, error) {
	t := tablePool.Get().(*groupTable)
	t.resetFor(vp.codec.Words(), len(vp.havingCols))
	res, _, err := vp.run(t, cfg)
	t.reset()
	tablePool.Put(t)
	return res, err
}

// run drives the pipeline into t: sequential below two morsels or workers,
// morsel-parallel otherwise, with the merge always consuming morsels in
// shard order. Tracing and profiling observe the same structure on both
// paths — a "scan" operator (morsel filter/key/gather, per-worker child
// spans when parallel), a "merge" operator, and a "finalize" operator —
// and never change claim order or accumulation order.
func (vp *vecPlan) run(t *groupTable, cfg execConfig) (*Result, []int32, error) {
	n := inputRows(vp.execPlan, vp.tuples)
	nMorsels := (n - vp.from + morselRows - 1) / morselRows
	workers := cfg.par
	if workers > nMorsels {
		workers = nMorsels
	}
	ctx, vsp := obs.StartSpan(cfg.ctx, "vexec")
	if vsp != nil {
		vsp.SetInt("rows", int64(n-vp.from))
		vsp.SetInt("morsels", int64(nMorsels))
		vsp.SetInt("workers", int64(workers))
		cfg.ctx = ctx
	}
	scan := cfg.prof.op("scan")
	merge := cfg.prof.op("merge")
	var err error
	if workers <= 1 {
		err = vp.runSeq(t, cfg, n, nMorsels, scan, merge)
	} else {
		err = vp.runPar(t, cfg, n, nMorsels, workers, scan, merge)
	}
	if err != nil {
		vsp.End()
		return nil, nil, err
	}
	fin := cfg.prof.op("finalize")
	t0 := profNow(fin)
	_, fsp := obs.StartSpan(cfg.ctx, "finalize")
	res, ids := t.finalizeResult(vp)
	fsp.End()
	fin.addWall(t0)
	fin.addRows(int64(len(t.firstRow)), int64(len(res.Rows)))
	if fsp != nil {
		fsp.SetInt("groups", int64(len(t.firstRow)))
		fsp.SetInt("rows_out", int64(len(res.Rows)))
	}
	vsp.End()
	return res, ids, nil
}

// runSeq processes and merges every morsel on the calling goroutine,
// observing ctx between morsels. The scan and merge spans are siblings
// that both cover the loop: sequential execution interleaves the two
// stages, and the profile's wall split is the accurate per-stage view.
func (vp *vecPlan) runSeq(t *groupTable, cfg execConfig, n, nMorsels int, scan, merge *opStats) error {
	ctx := cfg.ctx
	parent := obs.FromContext(ctx)
	scanSp := parent.Child("scan")
	mergeSp := parent.Child("merge")
	b := bufPool.Get().(*morselBuf)
	var err error
	var selected int64
	for m := 0; m < nMorsels; m++ {
		if ctx != nil && ctx.Err() != nil {
			err = ctx.Err()
			break
		}
		lo, hi := morselBounds(m, vp.from, n)
		t0 := profNow(scan)
		vp.processMorsel(b, lo, hi)
		scan.observe(int64(hi-lo), int64(len(b.localOf)), t0)
		selected += int64(len(b.localOf))
		t1 := profNow(merge)
		before := len(t.firstRow)
		t.mergeMorsel(vp, b)
		merge.observe(int64(len(b.localOf)), int64(len(t.firstRow)-before), t1)
	}
	b.reset()
	bufPool.Put(b)
	scanSp.SetInt("rows_selected", selected)
	mergeSp.SetInt("groups", int64(len(t.firstRow)))
	scanSp.End()
	mergeSp.End()
	return err
}

// runPar fans morsels out to a worker pool via a shared atomic counter
// (idle workers steal whatever morsel is next), while the calling goroutine
// merges completed morsels strictly in shard order — that order, plus the
// merge owning all float accumulation, is what makes the output identical
// to the sequential path. The per-morsel done channels give the merge its
// happens-before edge on results[i].
func (vp *vecPlan) runPar(t *groupTable, cfg execConfig, n, nMorsels, workers int, scan, merge *opStats) error {
	ctx := cfg.ctx
	parent := obs.FromContext(ctx)
	scanSp := parent.Child("scan")
	results := make([]*morselBuf, nMorsels)
	done := make([]chan struct{}, nMorsels)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Worker spans are created here, in launch order, so the span
		// tree's child order is deterministic; the goroutines only fill
		// in timings and morsel counts.
		var wsp *obs.Span
		if scanSp != nil {
			wsp = scanSp.Child("worker-" + strconv.Itoa(w))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var claimed int64
			for {
				i := int(next.Add(1)) - 1
				if i >= nMorsels {
					wsp.SetInt("morsels", claimed)
					wsp.End()
					return
				}
				// Observe cancellation between morsels: a cancelled
				// execution stops claiming work, and every claimed
				// morsel is still signalled so the merge never blocks.
				if ctx != nil && ctx.Err() != nil {
					cancelled.Store(true)
					close(done[i])
					continue
				}
				claimed++
				wb := bufPool.Get().(*morselBuf)
				lo, hi := morselBounds(i, vp.from, n)
				t0 := profNow(scan)
				vp.processMorsel(wb, lo, hi)
				scan.observe(int64(hi-lo), int64(len(wb.localOf)), t0)
				results[i] = wb
				close(done[i])
			}
		}()
	}
	mergeSp := parent.Child("merge")
	for i := 0; i < nMorsels; i++ {
		<-done[i]
		mb := results[i]
		if mb == nil {
			continue // claimed after cancellation
		}
		if !cancelled.Load() {
			t1 := profNow(merge)
			before := len(t.firstRow)
			t.mergeMorsel(vp, mb)
			merge.observe(int64(len(mb.localOf)), int64(len(t.firstRow)-before), t1)
		}
		mb.reset()
		bufPool.Put(mb)
	}
	// Join the workers: they exit as soon as the morsel counter runs dry,
	// and waiting keeps worker spans and profile counters complete before
	// the result (and any enclosing trace) is finalized.
	wg.Wait()
	mergeSp.SetInt("groups", int64(len(t.firstRow)))
	mergeSp.End()
	scanSp.End()
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// morselBounds returns morsel m's range over input rows [from, n).
func morselBounds(m, from, n int) (int32, int32) {
	lo := from + m*morselRows
	hi := lo + morselRows
	if hi > n {
		hi = n
	}
	return int32(lo), int32(hi)
}

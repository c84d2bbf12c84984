package engine

import (
	"math"

	"qagview/internal/obs"
	"qagview/internal/pattern"
	"qagview/internal/relation"
)

// This file maintains a single-table aggregation under appends, in the
// manner of counting-based incremental view maintenance (Gupta, Mumick and
// Subrahmanian, SIGMOD 1993) restricted to inserts. A Retained keeps the
// merge-side group table of the generation it last covered; Fold runs only
// the rows appended since through the same processMorsel → mergeMorsel →
// finalize pipeline. The result is bit-identical to a rescan because the
// merge adds every float in global row order, appended rows come after
// every old row, and an appended generation's dictionary codes keep the
// parent's codes as a prefix (first-seen order), so the retained key table
// still names every old group.
//
// A fold also knows each output row's group id, so it tells whether the
// ranked output changed by comparing group ids and value bits with the
// previous output's, without rendering anything twice.

// Retained is the aggregation state of one foldable query (see foldable):
// the group table, the key layout its keys were packed with, the lineage
// mark of the table generation it covers (not the generation itself, whose
// arrays a later append may have outgrown), and the previous output's group
// ids and value bits. It is single-writer: Fold must be serialized by the
// caller.
type Retained struct {
	q     *Query
	rel   relation.Lineage
	codec *pattern.Codec
	t     *groupTable

	// The last output in rank order: each row's group id and value bits.
	ids  []int32
	bits []uint64

	check foldCheck
}

// Folded is one fold's output: the query's result over the new generation,
// whether that ranked output (groups and value bits) differs from the
// previous one at all, and the number of appended rows aggregated.
type Folded struct {
	Result  *Result
	Changed bool
	Rows    int
}

// foldable reports whether Fold maintains q: a single-table query ordered
// by its value, descending. That is the ranking sessions summarize, so the
// output order is the one Changed compares rank by rank. Joins are not
// folded (their appended tuples need not sort last), and neither are other
// orders.
func foldable(q *Query) bool {
	return len(q.Joins) == 0 && q.OrderBy != "" && q.Desc
}

// Retain executes q like Execute and, when Fold maintains the query, keeps
// its group table for later folds; the Retained is nil otherwise (a join,
// another ORDER BY, the reference executor, or a ranking holding NaN). The
// result is Execute's.
func Retain(cat Catalog, q *Query, opts ...ExecOption) (*Result, *Retained, error) {
	return executeTraced(cat, q, newExecConfig(opts), true)
}

// retainVec runs the vectorized pipeline into a group table of its own
// (not the pool's), which the returned Retained keeps.
func retainVec(vp *vecPlan, rel *relation.Relation, cfg execConfig) (*Result, *Retained, error) {
	r := &Retained{q: vp.q, rel: rel.Lineage(), codec: vp.codec, t: new(groupTable)}
	r.t.resetFor(vp.codec.Words(), len(vp.havingCols))
	res, ids, err := vp.run(r.t, cfg)
	if err != nil || !ranked(res.Vals) {
		return res, nil, err
	}
	r.setOutput(ids, res.Vals)
	r.check.seed(res)
	return res, r, nil
}

// ranked reports whether vals are free of NaN and never increase from one
// row to the next, so that every ranking of them (a stable descending sort,
// as lattice.NewSpace and the maintainer apply) keeps the output order.
// With a NaN present, a stable sort can move rows of a sequence no adjacent
// pair of which is out of order.
func ranked(vals []float64) bool {
	for i, v := range vals {
		if math.IsNaN(v) || i > 0 && v > vals[i-1] {
			return false
		}
	}
	return true
}

// Fold brings the state up to the current generation of the query's table
// in cat, aggregating only the rows appended since the generation it
// covers. ok is false when the generation cannot be folded: it does not
// extend the covered one through appends (relation.Relation.Extends), a
// group column's dictionary outgrew its field in the retained key layout,
// or the new output holds NaN (see ranked). The state is unusable after ok
// is false or an error; the caller runs Retain again.
func (r *Retained) Fold(cat Catalog, opts ...ExecOption) (*Folded, bool, error) {
	cfg := newExecConfig(opts)
	ctx, sp := obs.StartSpan(cfg.ctx, "engine.fold")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("table", r.q.Table)
		cfg.ctx = ctx
	}
	rel, err := cat.Table(r.q.Table)
	if err != nil {
		return nil, false, err
	}
	if !rel.Extends(r.rel) {
		sp.SetAttr("refused", "lineage")
		return nil, false, nil
	}
	p, vp, err := planOp(cfg, r.q, []*relation.Relation{rel}, rel.Name(),
		func(name string) (colRef, bool) { return lookupCol(rel, r.q, name) })
	if err != nil {
		return nil, false, err
	}
	for j, c := range p.groupCols {
		if !r.codec.CardFits(j, rel.DictCodes(c.idx).Card) {
			sp.SetAttr("refused", "codec")
			return nil, false, nil
		}
	}
	vp.codec, vp.from = r.codec, r.rel.Rows()
	sp.SetInt("rows_folded", int64(rel.NumRows()-vp.from))
	res, ids, err := vp.run(r.t, cfg)
	if err != nil {
		return nil, false, err
	}
	if !ranked(res.Vals) {
		sp.SetAttr("refused", "nan")
		return nil, false, nil
	}
	if cfg.prof != nil {
		res.Profile = cfg.prof.snapshot()
	}
	f := &Folded{Result: res, Changed: r.changed(ids, res.Vals), Rows: rel.NumRows() - vp.from}
	r.check.fold(vp, res, f)
	r.rel = rel.Lineage()
	r.setOutput(ids, res.Vals)
	return f, true, nil
}

// changed reports whether a new output differs from the previous one: in
// length, or at some rank in its group id or value bits.
func (r *Retained) changed(ids []int32, vals []float64) bool {
	if len(ids) != len(r.ids) {
		return true
	}
	for i, g := range ids {
		if g != r.ids[i] || math.Float64bits(vals[i]) != r.bits[i] {
			return true
		}
	}
	return false
}

// setOutput records a new output as the previous one for the next fold.
func (r *Retained) setOutput(ids []int32, vals []float64) {
	r.bits = r.bits[:0]
	for _, v := range vals {
		r.bits = append(r.bits, math.Float64bits(v))
	}
	r.ids = ids
}

// ApproxBytes estimates the state's resident memory for cache accounting:
// the key table, the per-group accumulators, and the previous output's ids
// and value bits.
func (r *Retained) ApproxBytes() int64 {
	perGroup := int64(4 + 8 + 3*8 + 32*len(r.t.hcnt))
	return r.t.keys.Bytes() + int64(len(r.t.firstRow))*perGroup + int64(len(r.ids))*12
}

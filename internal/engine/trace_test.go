package engine

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"qagview/internal/obs"
)

func tracedCtx(t *testing.T) (context.Context, *obs.Tracer, *obs.Trace) {
	t.Helper()
	tr := obs.NewTracer(8, slog.New(slog.NewTextHandler(nullWriter{}, nil)))
	tr.SetEnabled(true)
	ctx, trace := tr.StartTrace(context.Background(), "test", false)
	if trace == nil {
		t.Fatal("tracer did not start a trace")
	}
	return ctx, tr, trace
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// findSpan walks the snapshot tree for the first span with the name.
func findSpan(s obs.SpanSnapshot, name string) (obs.SpanSnapshot, bool) {
	if s.Name == name {
		return s, true
	}
	for _, c := range s.Children {
		if got, ok := findSpan(c, name); ok {
			return got, true
		}
	}
	return obs.SpanSnapshot{}, false
}

// TestSpanNestingParallel pins the satellite requirement: under
// ExecParallelism > 1 over a multi-morsel relation, the span tree nests
// engine.execute -> vexec -> scan -> worker-N, with merge and finalize
// as vexec children, and the per-worker morsel counts cover every morsel.
func TestSpanNestingParallel(t *testing.T) {
	cat := syntheticCatalog(3*morselRows + 123)
	ctx, tr, trace := tracedCtx(t)
	res, err := ExecuteSQL(cat, "select a, sum(x) as v from t group by a order by v desc",
		ExecParallelism(4), ExecContext(ctx))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if res.N() == 0 {
		t.Fatal("empty result")
	}
	tr.Finish(trace)
	snap, ok := tr.Get(trace.ID)
	if !ok {
		t.Fatal("trace not retained")
	}
	exec, ok := findSpan(snap.Root, "engine.execute")
	if !ok {
		t.Fatalf("no engine.execute span in %+v", snap.Root)
	}
	vex, ok := findSpan(exec, "vexec")
	if !ok {
		t.Fatal("no vexec span under engine.execute")
	}
	scan, ok := findSpan(vex, "scan")
	if !ok {
		t.Fatal("no scan span under vexec")
	}
	if _, ok := findSpan(vex, "merge"); !ok {
		t.Fatal("no merge span under vexec")
	}
	if _, ok := findSpan(vex, "finalize"); !ok {
		t.Fatal("no finalize span under vexec")
	}
	// 4 morsels at par 4 -> 4 workers, each a child of scan; their claimed
	// morsel counts must sum to the morsel count.
	if len(scan.Children) != 4 {
		t.Fatalf("scan has %d worker spans, want 4: %+v", len(scan.Children), scan.Children)
	}
	var claimed int64
	for i, w := range scan.Children {
		if w.Name != fmt.Sprintf("worker-%d", i) {
			t.Fatalf("worker span %d named %q", i, w.Name)
		}
		for _, a := range w.Attrs {
			if a.Key == "morsels" {
				var n int64
				fmt.Sscan(a.Val, &n)
				claimed += n
			}
		}
	}
	if claimed != 4 {
		t.Fatalf("workers processed %d morsels total, want 4", claimed)
	}
	for _, w := range scan.Children {
		if w.Open {
			t.Fatalf("worker span %s still open after Execute returned", w.Name)
		}
	}
}

// TestJoinSpans: a traced join query produces join.build/join.probe spans
// (per step) plus the aggregation pipeline spans.
func TestJoinSpans(t *testing.T) {
	cat := starCatalog(3 * morselRows)
	ctx, tr, trace := tracedCtx(t)
	res, err := ExecuteSQL(cat,
		"select u.name, avg(f.x) as av from facts f join users u on f.uid = u.uid group by u.name order by av desc",
		ExecParallelism(4), ExecContext(ctx))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if res.N() == 0 {
		t.Fatal("empty result")
	}
	tr.Finish(trace)
	snap, _ := tr.Get(trace.ID)
	for _, name := range []string{"engine.execute", "join", "join.plan", "plan", "join.build", "join.probe", "vexec", "scan", "merge", "finalize"} {
		if _, ok := findSpan(snap.Root, name); !ok {
			t.Fatalf("missing span %q in traced join query", name)
		}
	}
}

// TestEquivalenceUnderTracing re-runs the bit-identity grid with tracing
// and profiling on: instrumentation must not perturb determinism.
func TestEquivalenceUnderTracing(t *testing.T) {
	cat := syntheticCatalog(2*morselRows + 77)
	queries := []string{
		"select a, b, sum(x) as v from t group by a, b order by v desc",
		"select a, count(*) as c from t where g = 1 group by a order by c desc limit 3",
	}
	for _, sql := range queries {
		want, err := ExecuteSQL(cat, sql, ExecReference())
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for _, par := range []int{1, 4} {
			ctx, tr, trace := tracedCtx(t)
			got, err := ExecuteSQL(cat, sql, ExecParallelism(par), ExecContext(ctx), ExecProfile())
			tr.Finish(trace)
			if err != nil {
				t.Fatalf("traced par=%d: %v", par, err)
			}
			assertBitIdentical(t, fmt.Sprintf("traced par=%d query=%s", par, sql), want, got)
			if len(got.Profile) == 0 {
				t.Fatal("ExecProfile produced no profile")
			}
		}
	}
}

// TestExecProfileContents checks the operator profile reports coherent
// rows/batches for a multi-morsel aggregation and for a join.
func TestExecProfileContents(t *testing.T) {
	rows := 3*morselRows + 123
	cat := syntheticCatalog(rows)
	res, err := ExecuteSQL(cat, "select a, sum(x) as v from t group by a order by v desc",
		ExecParallelism(2), ExecProfile())
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	prof := map[string]OpProfile{}
	for _, op := range res.Profile {
		prof[op.Op] = op
	}
	scan, ok := prof["scan"]
	if !ok {
		t.Fatalf("no scan operator in %v", res.Profile)
	}
	if scan.RowsIn != int64(rows) {
		t.Fatalf("scan rows_in %d, want %d", scan.RowsIn, rows)
	}
	if scan.Batches != 4 {
		t.Fatalf("scan batches %d, want 4 morsels", scan.Batches)
	}
	merge, ok := prof["merge"]
	if !ok || merge.RowsIn != scan.RowsOut {
		t.Fatalf("merge rows_in %d, want scan rows_out %d", merge.RowsIn, scan.RowsOut)
	}
	fin := prof["finalize"]
	if fin.RowsOut != int64(res.N()) {
		t.Fatalf("finalize rows_out %d, want %d", fin.RowsOut, res.N())
	}
	// The plan operator covers dictionary resolution: rows_in is the rows
	// the group columns' dictionaries span.
	if plan := prof["plan"]; plan.RowsIn != int64(rows) {
		t.Fatalf("plan rows_in %d, want %d", plan.RowsIn, rows)
	}
	// Rendered form is the Go-API EXPLAIN ANALYZE.
	s := res.Profile.String()
	for _, want := range []string{"operator", "scan", "merge", "finalize"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Profile.String() missing %q:\n%s", want, s)
		}
	}

	// Join profile: per-step build/probe operators appear in plan order.
	jres, err := ExecuteSQL(starCatalog(2000),
		"select cat, count(*) as c from facts join items on facts.iid = items.iid group by cat order by c desc",
		ExecParallelism(2), ExecProfile())
	if err != nil {
		t.Fatalf("join execute: %v", err)
	}
	var names []string
	for _, op := range jres.Profile {
		names = append(names, op.Op)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"join.plan", "join.build(items)", "join.probe(items)", "plan", "scan", "merge", "finalize"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("join profile missing %q: %v", want, names)
		}
	}
	// A join's group dictionaries are the base table's: plan's rows_in is
	// the rows of items, the table cat belongs to.
	for _, op := range jres.Profile {
		if op.Op == "plan" && op.RowsIn != 9 {
			t.Fatalf("join plan rows_in %d, want items' 9 rows", op.RowsIn)
		}
	}

	// Dictionary builds happen inside the plan operator and span: on a
	// fresh table, the first query's plan span carries the covered rows.
	ctx, tr, trace := tracedCtx(t)
	if _, err := ExecuteSQL(syntheticCatalog(rows), "select a, b, count(*) as c from t group by a, b",
		ExecContext(ctx), ExecProfile()); err != nil {
		t.Fatalf("traced execute: %v", err)
	}
	tr.Finish(trace)
	snap, _ := tr.Get(trace.ID)
	psp, ok := findSpan(snap.Root, "plan")
	if !ok {
		t.Fatal("no plan span")
	}
	if got := spanAttr(psp, "rows_in"); got != fmt.Sprint(2*rows) {
		t.Fatalf("plan span rows_in = %q, want %d", got, 2*rows)
	}

	// WHERE pushed below the join shows as its own operator: rows_in is
	// the filtered table's rows, rows_out the selection.
	fres, err := ExecuteSQL(starCatalog(2000),
		"select cat, count(*) as c from facts join items on facts.iid = items.iid where cat = 'c1' group by cat",
		ExecParallelism(2), ExecProfile())
	if err != nil {
		t.Fatalf("filtered join execute: %v", err)
	}
	var filter *OpProfile
	for i := range fres.Profile {
		if fres.Profile[i].Op == "join.filter" {
			filter = &fres.Profile[i]
		}
	}
	if filter == nil || filter.RowsIn != 9 || filter.RowsOut != 2 {
		t.Fatalf("join.filter = %+v, want 9 items rows in, the 2 of cat c1 out (profile %v)", filter, fres.Profile)
	}
}

// spanAttr returns the value of the span's attribute key, or "".
func spanAttr(s obs.SpanSnapshot, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TestProfileDoesNotLeakWithoutOption: no ExecProfile, no profile.
func TestProfileDoesNotLeakWithoutOption(t *testing.T) {
	cat := syntheticCatalog(500)
	res, err := ExecuteSQL(cat, "select a, count(*) as c from t group by a order by c desc")
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Fatalf("unexpected profile: %v", res.Profile)
	}
}

package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qagview/internal/obs"
)

// findSpanJSON walks a decoded SpanSnapshot tree for a span name.
func findSpanJSON(node map[string]any, name string) (map[string]any, bool) {
	if node["name"] == name {
		return node, true
	}
	kids, _ := node["children"].([]any)
	for _, k := range kids {
		if child, ok := k.(map[string]any); ok {
			if got, ok := findSpanJSON(child, name); ok {
				return got, true
			}
		}
	}
	return nil, false
}

// TestRequestIDOnResponses pins the satellite: every response carries
// X-Request-Id, and error bodies echo it as request_id.
func TestRequestIDOnResponses(t *testing.T) {
	_, ts := testServer(t, Config{})
	req, err := http.NewRequest("POST", ts.URL+"/v1/queries", strings.NewReader(`{"sql":""}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-Id")
	if rid == "" {
		t.Fatal("no X-Request-Id on query response")
	}
	bad := post(t, ts, "/v1/queries", map[string]any{"sql": ""})
	if bad.code != http.StatusBadRequest {
		t.Fatalf("empty sql: %d %s", bad.code, bad.raw)
	}
	if got, _ := bad.body["request_id"].(string); got == "" {
		t.Fatalf("error body carries no request_id: %s", bad.raw)
	}
	for _, path := range []string{"/healthz", "/metrics", "/debug/traces"} {
		r := get(t, ts, path)
		if r.code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, r.code, r.raw)
		}
	}
}

// TestTracedJoinQueryOverHTTP is the acceptance check: a ?trace=1 join query
// returns an inline span tree covering server route → engine (per-operator
// join and scan spans) → merge, even with the global tracing gate off.
func TestTracedJoinQueryOverHTTP(t *testing.T) {
	_, ts := joinTestServer(t)
	resp := post(t, ts, "/v1/queries?trace=1", map[string]any{"sql": joinSQL})
	if resp.code != http.StatusOK {
		t.Fatalf("traced query: %d %s", resp.code, resp.raw)
	}
	tr, ok := resp.body["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no inline trace in %s", resp.raw)
	}
	root, ok := tr["root"].(map[string]any)
	if !ok {
		t.Fatalf("trace has no root: %v", tr)
	}
	if root["name"] != "POST /v1/queries" {
		t.Fatalf("root span is %v, want the route", root["name"])
	}
	for _, name := range []string{"engine.execute", "join", "join.build", "join.probe", "vexec", "scan", "merge", "finalize"} {
		if _, ok := findSpanJSON(root, name); !ok {
			t.Fatalf("span %q missing from inline trace: %s", name, resp.raw)
		}
	}
}

// TestQueryProfile pins the EXPLAIN ANALYZE surface over HTTP: "profile":
// true returns per-operator rows/batches/wall-time plus a rendered table.
func TestQueryProfile(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL, "profile": true})
	if resp.code != http.StatusOK {
		t.Fatalf("profiled query: %d %s", resp.code, resp.raw)
	}
	ops, ok := resp.body["profile"].([]any)
	if !ok || len(ops) == 0 {
		t.Fatalf("no profile in %s", resp.raw)
	}
	names := map[string]bool{}
	for _, op := range ops {
		names[op.(map[string]any)["op"].(string)] = true
	}
	for _, want := range []string{"plan", "scan", "merge", "finalize"} {
		if !names[want] {
			t.Fatalf("profile missing operator %q: %s", want, resp.raw)
		}
	}
	text, _ := resp.body["profile_text"].(string)
	if !strings.Contains(text, "operator") {
		t.Fatalf("profile_text missing header: %q", text)
	}
	// Without the flag the response stays clean.
	plain := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL})
	if _, leaked := plain.body["profile"]; leaked {
		t.Fatal("profile leaked into an unprofiled response")
	}
}

// TestDebugTraces exercises the ring endpoints: with tracing enabled every
// request is retained, listable, and retrievable by id.
func TestDebugTraces(t *testing.T) {
	_, ts := testServer(t, Config{TraceEnabled: true, TraceRing: 16})
	if r := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL}); r.code != http.StatusOK {
		t.Fatalf("query: %d %s", r.code, r.raw)
	}
	list := get(t, ts, "/debug/traces")
	if list.code != http.StatusOK {
		t.Fatalf("GET /debug/traces: %d %s", list.code, list.raw)
	}
	ring := list.body["ring"].(map[string]any)
	if ring["enabled"] != true {
		t.Fatalf("ring reports disabled: %s", list.raw)
	}
	traces := list.body["traces"].([]any)
	if len(traces) == 0 {
		t.Fatal("no traces retained")
	}
	var queryTrace map[string]any
	for _, tr := range traces {
		if m := tr.(map[string]any); m["name"] == "POST /v1/queries" {
			queryTrace = m
			break
		}
	}
	if queryTrace == nil {
		t.Fatalf("query trace not in ring: %s", list.raw)
	}
	one := get(t, ts, "/debug/traces/"+queryTrace["id"].(string))
	if one.code != http.StatusOK {
		t.Fatalf("GET trace by id: %d %s", one.code, one.raw)
	}
	root := one.body["root"].(map[string]any)
	if _, ok := findSpanJSON(root, "engine.execute"); !ok {
		t.Fatalf("retained trace has no engine span: %s", one.raw)
	}
	missing := get(t, ts, "/debug/traces/nope")
	if missing.code != http.StatusNotFound {
		t.Fatalf("unknown trace id: %d", missing.code)
	}
	if rid, _ := missing.body["request_id"].(string); rid == "" {
		t.Fatalf("404 body carries no request_id: %s", missing.raw)
	}
}

// TestSlowQueryCapture: with a zero-ish threshold armed, ordinary requests
// land in the slow ring and are flagged in the index.
func TestSlowQueryCapture(t *testing.T) {
	srv, ts := testServer(t, Config{SlowQuery: time.Nanosecond})
	if r := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL}); r.code != http.StatusOK {
		t.Fatalf("query: %d %s", r.code, r.raw)
	}
	st := srv.tracer.Stats()
	if st.SlowTotal == 0 {
		t.Fatalf("no slow traces captured: %+v", st)
	}
	list := get(t, ts, "/debug/traces")
	if !strings.Contains(list.raw, `"slow": true`) && !strings.Contains(list.raw, `"slow":true`) {
		t.Fatalf("no trace flagged slow: %s", list.raw)
	}
}

// TestPromMetrics scrapes /metrics?format=prometheus and validates it with
// the exposition parser — the same check the e2e smoke runs.
func TestPromMetrics(t *testing.T) {
	_, ts := testServer(t, Config{TraceEnabled: true})
	if r := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL}); r.code != http.StatusOK {
		t.Fatalf("query: %d %s", r.code, r.raw)
	}
	scrape := get(t, ts, "/metrics?format=prometheus")
	if scrape.code != http.StatusOK {
		t.Fatalf("scrape: %d %s", scrape.code, scrape.raw)
	}
	fams, err := obs.ParseExposition(scrape.raw)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, scrape.raw)
	}
	have := map[string]bool{}
	for _, f := range fams {
		have[f.Name] = true
	}
	for _, want := range []string{
		"qagviewd_uptime_seconds", "qagviewd_requests_total", "qagviewd_request_latency_ms",
		"qagviewd_sessions_live", "qagviewd_goroutines", "qagviewd_heap_alloc_bytes",
		"qagviewd_trace_ring_occupancy", "qagviewd_traces_total",
	} {
		if !have[want] {
			t.Fatalf("missing family %q in scrape:\n%s", want, scrape.raw)
		}
	}
	s, ok := obs.FindSample(fams, "qagviewd_requests_total", map[string]string{"route": "POST /v1/queries", "code": "200"})
	if !ok || s.Value < 1 {
		t.Fatalf("no request counter for the query route: %s", scrape.raw)
	}
	// JSON stays the default rendering.
	asJSON := get(t, ts, "/metrics")
	if asJSON.body == nil || asJSON.body["requests"] == nil {
		t.Fatalf("default /metrics no longer JSON: %s", asJSON.raw)
	}
}

// TestMetricsScrapeObserveRace pins the satellite fix: quantile sorting must
// not mutate or hold the ring under concurrent observes. Run under -race.
func TestMetricsScrapeObserveRace(t *testing.T) {
	m := newMetrics()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.observe(fmt.Sprintf("route-%d", g%2), 200, time.Duration(i)*time.Microsecond)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		_, routes := m.snapshot()
		for _, rs := range routes {
			if rs.P99Ms < rs.P50Ms {
				t.Errorf("p99 %v < p50 %v", rs.P99Ms, rs.P50Ms)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestTracedSessionBuildSpans pins the session build's own spans: a traced
// POST /v1/sessions shows lattice.build with the response's cluster and
// tuple counts, and session.fingerprint; the background store build's
// trace reports how many of those clusters the sweep filled, and starts
// the sweeper cold (summarize.sweeper). After an append, a traced fresh read
// is answered live, and its solution span and the next build's delta.warm
// carry the evaluation counts of their greedy runs.
func TestTracedSessionBuildSpans(t *testing.T) {
	_, ts := testServer(t, Config{TraceEnabled: true})
	resp := post(t, ts, "/v1/sessions?trace=1", map[string]any{
		"sql": testSQL, "l": 8, "kmin": 1, "kmax": 3, "ds": []int{0, 1, 2},
	})
	if resp.code != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.code, resp.raw)
	}
	root := resp.body["trace"].(map[string]any)["root"].(map[string]any)
	lb, ok := findSpanJSON(root, "lattice.build")
	if !ok {
		t.Fatalf("no lattice.build span: %s", resp.raw)
	}
	clusters := fmt.Sprint(resp.body["clusters"])
	if spanAttrJSON(lb, "clusters") != clusters || spanAttrJSON(lb, "tuples") != fmt.Sprint(resp.body["n"]) {
		t.Fatalf("lattice.build attrs %v, response clusters %s n %v", lb["attrs"], clusters, resp.body["n"])
	}
	if _, ok := findSpanJSON(root, "session.fingerprint"); !ok {
		t.Fatalf("no session.fingerprint span: %s", resp.raw)
	}
	id := resp.body["session"].(string)
	waitReady(t, ts, id)
	build := latestBuildTrace(t, ts)
	filled := spanAttrJSON(build, "clusters_filled")
	f, err := strconv.Atoi(filled)
	if err != nil {
		t.Fatalf("session.build_store clusters_filled = %q", filled)
	}
	if c, _ := strconv.Atoi(clusters); f < 1 || f > c {
		t.Fatalf("clusters_filled = %d of %d clusters", f, c)
	}
	// The pool of 2·kmax = 6 clusters is below L = 8, so every greedy run
	// below merges and evaluates.
	hasEvals := func(sp map[string]any, name string) {
		t.Helper()
		full, err := strconv.Atoi(spanAttrJSON(sp, "full_evals"))
		if _, derr := strconv.Atoi(spanAttrJSON(sp, "delta_evals")); err != nil || derr != nil || full < 1 {
			t.Fatalf("%s attrs %v, want full_evals >= 1 and delta_evals", name, sp["attrs"])
		}
	}
	sws, ok := findSpanJSON(build, "summarize.sweeper")
	if !ok {
		t.Fatalf("first build has no summarize.sweeper span: %v", build)
	}
	hasEvals(sws, "summarize.sweeper")

	appendRows(t, ts, "t", [][]string{{"A0", "B0", "C0", "100"}})
	fresh := get(t, ts, "/v1/sessions/"+id+"/solution?k=2&d=1&trace=1")
	sol, ok := findSpanJSON(fresh.body["trace"].(map[string]any)["root"].(map[string]any), "solution")
	if !ok || spanAttrJSON(sol, "source") != "live" {
		t.Fatalf("fresh read: no live solution span: %s", fresh.raw)
	}
	hasEvals(sol, "solution")
	waitReady(t, ts, id)
	warm, ok := findSpanJSON(latestBuildTrace(t, ts), "delta.warm")
	if !ok {
		t.Fatal("the build after the refresh has no delta.warm span")
	}
	hasEvals(warm, "delta.warm")
}

// latestBuildTrace returns the root span of the newest session.build_store
// trace.
func latestBuildTrace(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	for _, tr := range get(t, ts, "/debug/traces").body["traces"].([]any) {
		if s := tr.(map[string]any); s["name"] == "session.build_store" {
			return get(t, ts, "/debug/traces/"+s["id"].(string)).body["root"].(map[string]any)
		}
	}
	t.Fatal("no session.build_store trace")
	return nil
}

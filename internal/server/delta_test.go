package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qagview"
	"qagview/internal/engine"
)

func del(t *testing.T, ts *httptest.Server, path string) response {
	t.Helper()
	req, err := http.NewRequest("DELETE", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, req)
}

// appendRows posts rows to the live-table append endpoint.
func appendRows(t *testing.T, ts *httptest.Server, table string, rows [][]string) response {
	t.Helper()
	return post(t, ts, "/v1/tables/"+table+"/rows", map[string]any{"rows": rows})
}

// metricsEvents fetches the session-manager event counters from /metrics.
func metricsEvents(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp := get(t, ts, "/metrics")
	if resp.code != http.StatusOK {
		t.Fatalf("metrics: %d %s", resp.code, resp.raw)
	}
	return resp.body["sessions"].(map[string]any)["events"].(map[string]any)
}

func TestAppendRowsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})

	resp := appendRows(t, ts, "t", [][]string{{"A0", "B0", "C0", "99"}})
	if resp.code != http.StatusOK {
		t.Fatalf("append: %d %s", resp.code, resp.raw)
	}
	if resp.body["appended"].(float64) != 1 || resp.body["rows"].(float64) != 37 {
		t.Fatalf("append accounting: %s", resp.raw)
	}
	if resp.body["data_version"].(float64) != 2 {
		t.Fatalf("data_version after first append: %s", resp.raw)
	}

	// CSV form: header must name the table's columns in order.
	resp = post(t, ts, "/v1/tables/t/rows", map[string]any{"csv": "a,b,c,v\nA1,B1,C1,7.5\nA1,B1,C0,2\n"})
	if resp.code != http.StatusOK || resp.body["appended"].(float64) != 2 {
		t.Fatalf("csv append: %d %s", resp.code, resp.raw)
	}
	if resp.body["data_version"].(float64) != 3 {
		t.Fatalf("data_version after csv append: %s", resp.raw)
	}

	// Error paths.
	if resp := appendRows(t, ts, "nope", [][]string{{"A0", "B0", "C0", "1"}}); resp.code != http.StatusNotFound {
		t.Fatalf("unknown table: %d %s", resp.code, resp.raw)
	}
	if resp := post(t, ts, "/v1/tables/t/rows", map[string]any{}); resp.code != http.StatusBadRequest {
		t.Fatalf("empty body: %d %s", resp.code, resp.raw)
	}
	if resp := post(t, ts, "/v1/tables/t/rows", map[string]any{
		"rows": [][]string{{"A0", "B0", "C0", "1"}}, "csv": "a,b,c,v\nA0,B0,C0,1\n",
	}); resp.code != http.StatusBadRequest {
		t.Fatalf("both forms: %d %s", resp.code, resp.raw)
	}
	if resp := appendRows(t, ts, "t", [][]string{{"A0", "B0"}}); resp.code != http.StatusBadRequest {
		t.Fatalf("short row: %d %s", resp.code, resp.raw)
	}
	if resp := appendRows(t, ts, "t", [][]string{{"A0", "B0", "C0", "not-a-float"}}); resp.code != http.StatusBadRequest {
		t.Fatalf("bad value: %d %s", resp.code, resp.raw)
	}
	if resp := post(t, ts, "/v1/tables/t/rows", map[string]any{"csv": "b,a,c,v\nB0,A0,C0,1\n"}); resp.code != http.StatusBadRequest {
		t.Fatalf("reordered header: %d %s", resp.code, resp.raw)
	}
	// Failed appends must not bump the generation.
	resp = appendRows(t, ts, "t", [][]string{{"A0", "B0", "C0", "1"}})
	if resp.body["data_version"].(float64) != 4 {
		t.Fatalf("errors leaked generation bumps: %s", resp.raw)
	}

	// Inline rows are parsed directly, not round-tripped through CSV: on a
	// single-column table an empty string would serialize as a blank CSV
	// line and be silently skipped on re-read.
	if resp := post(t, ts, "/v1/tables", map[string]any{
		"name": "solo", "attrs": []string{"s"}, "rows": [][]string{{"x"}},
	}); resp.code != http.StatusCreated {
		t.Fatalf("solo table: %d %s", resp.code, resp.raw)
	}
	resp = appendRows(t, ts, "solo", [][]string{{"a"}, {""}, {"b"}})
	if resp.code != http.StatusOK || resp.body["appended"].(float64) != 3 || resp.body["rows"].(float64) != 4 {
		t.Fatalf("empty-string row dropped: %d %s", resp.code, resp.raw)
	}

	// A header-only CSV batch is a no-op: nothing appended, generation (and
	// therefore every session's staleness) untouched.
	resp = post(t, ts, "/v1/tables/solo/rows", map[string]any{"csv": "s\n"})
	if resp.code != http.StatusOK || resp.body["appended"].(float64) != 0 {
		t.Fatalf("header-only csv: %d %s", resp.code, resp.raw)
	}
	if resp.body["data_version"].(float64) != 2 {
		t.Fatalf("zero-row append bumped the generation: %s", resp.raw)
	}
}

// TestSessionRefreshOnRead is the end-to-end live-table loop: a session's
// first read after an append refreshes it through the incremental
// maintenance path, serves the bumped data_version, and — once the
// superseding store build finishes — returns exactly what a cold server
// bootstrapped from the updated table returns.
func TestSessionRefreshOnRead(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := openSession(t, ts)
	waitReady(t, ts, id)

	sol := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1")
	if sol.code != http.StatusOK || sol.body["data_version"].(float64) != 1 {
		t.Fatalf("fresh solution: %d %s", sol.code, sol.raw)
	}

	// Crown a new leader: the A2,B2,C1 group's average jumps to the top.
	extra := [][]string{
		{"A2", "B2", "C1", "500"},
		{"A2", "B2", "C1", "500"},
		{"A0", "B1", "C0", "250"},
	}
	if resp := appendRows(t, ts, "t", extra); resp.code != http.StatusOK {
		t.Fatalf("append: %d %s", resp.code, resp.raw)
	}

	// Re-creating the identical session reuses it AND reconciles it: the
	// create response itself must already carry the bumped version.
	recreate := post(t, ts, "/v1/sessions", map[string]any{
		"sql": testSQL, "l": 8, "kmin": 1, "kmax": 6, "ds": []int{0, 1, 2},
	})
	if recreate.code != http.StatusOK || recreate.body["data_version"].(float64) != 2 {
		t.Fatalf("reused create served stale data_version: %d %s", recreate.code, recreate.raw)
	}

	sol = get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1")
	if sol.code != http.StatusOK {
		t.Fatalf("refreshed solution: %d %s", sol.code, sol.raw)
	}
	if sol.body["data_version"].(float64) != 2 {
		t.Fatalf("refreshed solution carries data_version %v, want 2: %s", sol.body["data_version"], sol.raw)
	}
	info := waitReady(t, ts, id)
	if info.body["data_version"].(float64) != 2 || info.body["store_generation"].(float64) != 2 {
		t.Fatalf("refreshed store generation: %s", info.raw)
	}
	fromStore := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1&expand=1")
	if fromStore.body["source"] != "store" {
		t.Fatalf("expected store-served solution after rebuild: %s", fromStore.raw)
	}

	// A cold server over the combined table must serve the identical answer.
	coldSrv := New(Config{})
	coldTS := httptest.NewServer(coldSrv.Handler())
	defer func() {
		coldTS.Close()
		coldSrv.Close()
	}()
	var sb strings.Builder
	sb.WriteString(makeCSV(3, 3, 2))
	for _, row := range extra {
		fmt.Fprintf(&sb, "%s\n", strings.Join(row, ","))
	}
	if resp := post(t, coldTS, "/v1/tables", map[string]any{
		"name": "t", "csv": sb.String(), "kinds": map[string]string{"v": "float"},
	}); resp.code != http.StatusCreated {
		t.Fatalf("cold table: %d %s", resp.code, resp.raw)
	}
	coldID := openSession(t, coldTS)
	if coldID != id {
		t.Fatalf("session ids diverged: %s vs %s", coldID, id)
	}
	waitReady(t, coldTS, coldID)
	coldSol := get(t, coldTS, "/v1/sessions/"+coldID+"/solution?k=3&d=1&expand=1")
	if coldSol.body["source"] != "store" {
		t.Fatalf("cold solution not from store: %s", coldSol.raw)
	}
	for _, field := range []string{"objective", "covered", "clusters"} {
		if !reflect.DeepEqual(fromStore.body[field], coldSol.body[field]) {
			t.Fatalf("refreshed %s diverges from cold rebuild:\n%v\nvs\n%v", field, fromStore.body[field], coldSol.body[field])
		}
	}
}

// TestRefreshDeduplicated hammers a stale session with concurrent reads: the
// singleflight must run exactly one refresh.
func TestRefreshDeduplicated(t *testing.T) {
	srv, ts := testServer(t, Config{})
	id := openSession(t, ts)
	waitReady(t, ts, id)
	if resp := appendRows(t, ts, "t", [][]string{{"A1", "B2", "C0", "300"}}); resp.code != http.StatusOK {
		t.Fatalf("append: %d %s", resp.code, resp.raw)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest("GET", ts.URL+"/v1/sessions/"+id+"/solution?k=2&d=1", nil)
			if err != nil {
				errs <- err.Error()
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err.Error()
				return
			}
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				errs <- err.Error()
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("status %d", resp.StatusCode)
			} else if body["data_version"].(float64) != 2 {
				errs <- fmt.Sprintf("data_version %v", body["data_version"])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	_, _, stats := srv.sessions.occupancy()
	if stats.Refreshes != 1 || stats.RefreshErrors != 0 {
		t.Fatalf("refresh stats after concurrent stale reads: %+v", stats)
	}
}

// TestRefreshNoop pins the unchanged-result path: an append the query
// filters out (a new group below the HAVING threshold) bumps the data
// version but carries the finished store over without a resweep.
func TestRefreshNoop(t *testing.T) {
	srv, ts := testServer(t, Config{})
	sql := "SELECT a, b, c, avg(v) AS val FROM t GROUP BY a, b, c HAVING count(*) > 1 ORDER BY val DESC"
	resp := post(t, ts, "/v1/sessions", map[string]any{"sql": sql, "l": 8, "kmin": 1, "kmax": 5, "ds": []int{1}})
	if resp.code != http.StatusCreated {
		t.Fatalf("session: %d %s", resp.code, resp.raw)
	}
	id := resp.body["session"].(string)
	waitReady(t, ts, id)

	// A single-row group fails HAVING count(*) > 1: the answer set is
	// byte-identical after this append.
	if resp := appendRows(t, ts, "t", [][]string{{"Z9", "Z9", "Z9", "5"}}); resp.code != http.StatusOK {
		t.Fatalf("append: %d %s", resp.code, resp.raw)
	}
	info := get(t, ts, "/v1/sessions/"+id)
	if info.code != http.StatusOK {
		t.Fatalf("info: %d %s", info.code, info.raw)
	}
	if info.body["data_version"].(float64) != 2 {
		t.Fatalf("no-op refresh must still bump data_version: %s", info.raw)
	}
	if info.body["store_ready"] != true {
		t.Fatalf("no-op refresh dropped the finished store: %s", info.raw)
	}
	if info.body["store_generation"].(float64) != 1 {
		t.Fatalf("carried store should keep its original generation: %s", info.raw)
	}
	_, _, stats := srv.sessions.occupancy()
	if stats.RefreshNoops != 1 || stats.Refreshes != 0 {
		t.Fatalf("refresh counters: %+v", stats)
	}
}

// TestRefreshFailureKeepsSession pins the 409 path: when the table changes
// incompatibly (here: replaced with one too small for the session's L), a
// stale read reports Conflict and the session survives for a later fix.
func TestRefreshFailureKeepsSession(t *testing.T) {
	srv, ts := testServer(t, Config{})
	id := openSession(t, ts)
	waitReady(t, ts, id)
	// Replace the table with a 4-group version: below the session's l = 8.
	if resp := post(t, ts, "/v1/tables", map[string]any{
		"name": "t", "csv": makeCSV(1, 2, 2), "kinds": map[string]string{"v": "float"},
	}); resp.code != http.StatusCreated {
		t.Fatalf("replacing table: %d %s", resp.code, resp.raw)
	}
	sol := get(t, ts, "/v1/sessions/"+id+"/solution?k=2&d=1")
	if sol.code != http.StatusConflict {
		t.Fatalf("stale read over a shrunken table: %d %s", sol.code, sol.raw)
	}
	if _, ok := srv.sessions.get(id); !ok {
		t.Fatal("failed refresh evicted the session")
	}
	_, _, stats := srv.sessions.occupancy()
	if stats.RefreshErrors == 0 {
		t.Fatalf("refresh error not counted: %+v", stats)
	}
}

// TestDeleteSession pins the explicit-eviction handler: the session is
// removed, its bytes leave the LRU accounting, its in-flight build is
// cancelled, and the id 404s afterwards.
func TestDeleteSession(t *testing.T) {
	srv, ts := testServer(t, Config{})
	id := openSession(t, ts)
	sess, ok := srv.sessions.get(id)
	if !ok {
		t.Fatal("session not registered")
	}
	live, bytes, _ := srv.sessions.occupancy()
	if live != 1 || bytes <= 0 {
		t.Fatalf("occupancy before delete: live=%d bytes=%d", live, bytes)
	}
	resp := del(t, ts, "/v1/sessions/"+id)
	if resp.code != http.StatusOK || resp.body["deleted"] != true {
		t.Fatalf("delete: %d %s", resp.code, resp.raw)
	}
	// The in-flight (or finished) build observed the cancellation path.
	v := sess.currentView()
	<-v.build.ready
	if v.build.buildErr != nil && !errors.Is(v.build.buildErr, context.Canceled) {
		t.Fatalf("deleted session's build error: %v", v.build.buildErr)
	}
	live, bytes, stats := srv.sessions.occupancy()
	if live != 0 || bytes != 0 {
		t.Fatalf("occupancy after delete: live=%d bytes=%d", live, bytes)
	}
	// An explicit delete counts as a delete, not as cache-pressure eviction.
	if stats.Deletes != 1 || stats.Evictions != 0 {
		t.Fatalf("delete stats: %+v", stats)
	}
	if resp := get(t, ts, "/v1/sessions/"+id); resp.code != http.StatusNotFound {
		t.Fatalf("deleted session still served: %d %s", resp.code, resp.raw)
	}
	if resp := del(t, ts, "/v1/sessions/"+id); resp.code != http.StatusNotFound {
		t.Fatalf("double delete: %d %s", resp.code, resp.raw)
	}
	if ev := metricsEvents(t, ts); ev["deletes"].(float64) != 1 {
		t.Fatalf("metrics deletes: %v", ev)
	}
}

// TestRefreshBitIdenticalAcrossExecParallelism drives the full serving loop —
// session build, live-table append, lazy refresh on re-create — on a server
// running the row-at-a-time reference executor and on servers running the
// vectorized executor at several worker counts. Every variant must serve the
// same solutions before and after the data_version bump: query execution
// settings tune cost, never output.
func TestRefreshBitIdenticalAcrossExecParallelism(t *testing.T) {
	extra := [][]string{
		{"A2", "B2", "C1", "500"},
		{"A2", "B2", "C1", "500"},
		{"A0", "B1", "C0", "250"},
	}
	// solutionView keeps the result-determined fields, dropping identifiers
	// and the store-vs-replay source, which depends on build timing.
	solutionView := func(body map[string]any) map[string]any {
		v := make(map[string]any)
		for _, k := range []string{"k", "d", "data_version", "objective", "covered", "clusters"} {
			v[k] = body[k]
		}
		return v
	}
	type snap struct {
		fresh, refreshed map[string]any
	}
	run := func(t *testing.T, reference bool, par int) snap {
		srv, ts := testServer(t, Config{ExecParallelism: par})
		if reference {
			srv.db.execOpts = []qagview.QueryOption{engine.ExecReference()}
		}
		id := openSession(t, ts)
		waitReady(t, ts, id)
		fresh := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1&expand=1")
		if fresh.code != http.StatusOK || fresh.body["data_version"].(float64) != 1 {
			t.Fatalf("fresh solution: %d %s", fresh.code, fresh.raw)
		}
		if resp := appendRows(t, ts, "t", extra); resp.code != http.StatusOK {
			t.Fatalf("append: %d %s", resp.code, resp.raw)
		}
		// Re-creating the identical session reconciles it through the
		// refresh path (db.query under the hood re-runs the session SQL).
		recreate := post(t, ts, "/v1/sessions", map[string]any{
			"sql": testSQL, "l": 8, "kmin": 1, "kmax": 6, "ds": []int{0, 1, 2},
		})
		if recreate.code != http.StatusOK || recreate.body["data_version"].(float64) != 2 {
			t.Fatalf("refresh on re-create: %d %s", recreate.code, recreate.raw)
		}
		waitReady(t, ts, id)
		refreshed := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1&expand=1")
		if refreshed.code != http.StatusOK || refreshed.body["data_version"].(float64) != 2 {
			t.Fatalf("refreshed solution: %d %s", refreshed.code, refreshed.raw)
		}
		return snap{fresh: solutionView(fresh.body), refreshed: solutionView(refreshed.body)}
	}
	want := run(t, true, 0)
	for _, par := range []int{1, 2, 8} {
		got := run(t, false, par)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("exec parallelism %d diverges from reference executor:\nwant %+v\ngot  %+v", par, want, got)
		}
	}
}

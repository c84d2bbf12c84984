package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qagview"
	"qagview/internal/intervaltree"
)

// makeCSV renders a synthetic answer table: na x nb x nc groups with two
// rows each and distinct per-group averages, so aggregate queries over it
// rank deterministically.
func makeCSV(na, nb, nc int) string {
	var sb strings.Builder
	sb.WriteString("a,b,c,v\n")
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			for l := 0; l < nc; l++ {
				base := float64(i*nb*nc + j*nc + l)
				fmt.Fprintf(&sb, "A%d,B%d,C%d,%g\n", i, j, l, base)
				fmt.Fprintf(&sb, "A%d,B%d,C%d,%g\n", i, j, l, base+1)
			}
		}
	}
	return sb.String()
}

const testSQL = "SELECT a, b, c, avg(v) AS val FROM t GROUP BY a, b, c ORDER BY val DESC"

// testServer starts a server over httptest with the synthetic table loaded.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	resp := post(t, ts, "/v1/tables", map[string]any{
		"name": "t",
		"csv":  makeCSV(3, 3, 2),
		"kinds": map[string]string{
			"v": "float",
		},
	})
	if resp.code != http.StatusCreated {
		t.Fatalf("creating table: %d %s", resp.code, resp.raw)
	}
	return srv, ts
}

type response struct {
	code int
	raw  string
	body map[string]any
}

func do(t *testing.T, req *http.Request) response {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	out := response{code: resp.StatusCode, raw: string(raw)}
	if json.Unmarshal(raw, &out.body) != nil {
		out.body = nil
	}
	return out
}

func post(t *testing.T, ts *httptest.Server, path string, body any) response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return do(t, req)
}

func get(t *testing.T, ts *httptest.Server, path string) response {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, req)
}

// openSession creates the standard test session and returns its id.
func openSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp := post(t, ts, "/v1/sessions", map[string]any{
		"sql": testSQL, "l": 8, "kmin": 1, "kmax": 6, "ds": []int{0, 1, 2},
	})
	if resp.code != http.StatusCreated && resp.code != http.StatusOK {
		t.Fatalf("creating session: %d %s", resp.code, resp.raw)
	}
	return resp.body["session"].(string)
}

// waitReady polls session info until the background store build finishes.
func waitReady(t *testing.T, ts *httptest.Server, id string) response {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp := get(t, ts, "/v1/sessions/"+id)
		if resp.code != http.StatusOK {
			t.Fatalf("session info: %d %s", resp.code, resp.raw)
		}
		if se, ok := resp.body["store_error"]; ok {
			t.Fatalf("store build failed: %v", se)
		}
		if resp.body["store_ready"] == true {
			return resp
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("store build did not finish in time")
	return response{}
}

func TestTableQuerySessionSolutionFlow(t *testing.T) {
	_, ts := testServer(t, Config{})

	if resp := get(t, ts, "/v1/tables"); resp.code != http.StatusOK || !strings.Contains(resp.raw, `"t"`) {
		t.Fatalf("listing tables: %d %s", resp.code, resp.raw)
	}
	resp := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL, "limit": 3})
	if resp.code != http.StatusOK {
		t.Fatalf("query: %d %s", resp.code, resp.raw)
	}
	if n := resp.body["n"].(float64); n != 18 {
		t.Fatalf("query n = %v, want 18", n)
	}
	if rows := resp.body["rows"].([]any); len(rows) != 3 {
		t.Fatalf("query echoed %d rows, want 3", len(rows))
	}

	id := openSession(t, ts)
	info := waitReady(t, ts, id)
	if info.body["from_snapshot"] != false {
		t.Fatalf("fresh build marked from_snapshot: %s", info.raw)
	}
	if info.body["store_bytes"].(float64) <= 0 {
		t.Fatalf("store_bytes not reported: %s", info.raw)
	}

	sol := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1&expand=1")
	if sol.code != http.StatusOK {
		t.Fatalf("solution: %d %s", sol.code, sol.raw)
	}
	if sol.body["source"] != "store" {
		t.Fatalf("post-ready solution source = %v, want store", sol.body["source"])
	}
	clusters := sol.body["clusters"].([]any)
	if len(clusters) == 0 || len(clusters) > 3 {
		t.Fatalf("solution has %d clusters, want 1..3", len(clusters))
	}
	if _, ok := clusters[0].(map[string]any)["members"]; !ok {
		t.Fatalf("expand=1 did not include members: %s", sol.raw)
	}

	diff := get(t, ts, "/v1/sessions/"+id+"/diff?k1=2&d1=1&k2=3&d2=1")
	if diff.code != http.StatusOK {
		t.Fatalf("diff: %d %s", diff.code, diff.raw)
	}
	if len(diff.body["overlap"].([]any)) == 0 {
		t.Fatalf("diff overlap empty: %s", diff.raw)
	}

	guid := get(t, ts, "/v1/sessions/"+id+"/guidance")
	if guid.code != http.StatusOK {
		t.Fatalf("guidance: %d %s", guid.code, guid.raw)
	}
	if len(guid.body["series"].(map[string]any)) != 3 {
		t.Fatalf("guidance series: %s", guid.raw)
	}

	met := get(t, ts, "/metrics")
	if met.code != http.StatusOK {
		t.Fatalf("metrics: %d %s", met.code, met.raw)
	}
	sessions := met.body["sessions"].(map[string]any)
	if sessions["live"].(float64) != 1 {
		t.Fatalf("metrics live sessions = %v, want 1", sessions["live"])
	}
	if sessions["bytes"].(float64) <= 0 {
		t.Fatalf("metrics session bytes = %v, want > 0", sessions["bytes"])
	}
	reqs := met.body["requests"].(map[string]any)
	if _, ok := reqs["GET /v1/sessions/{id}/solution"]; !ok {
		t.Fatalf("metrics missing solution route: %s", met.raw)
	}
	if h := get(t, ts, "/healthz"); h.code != http.StatusOK || h.body["status"] != "ok" {
		t.Fatalf("healthz: %d %s", h.code, h.raw)
	}
}

func TestSolutionLiveFallbackBeforeReady(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := openSession(t, ts)
	// The store builds in the background; a read racing it must succeed
	// either way, label its source, and match the library's answer for that
	// source.
	sol := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1")
	if sol.code != http.StatusOK {
		t.Fatalf("solution during build: %d %s", sol.code, sol.raw)
	}
	assertSolutionForSource(t, sol, 3, 1)
	waitReady(t, ts, id)
	after := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1")
	if after.body["source"] != "store" {
		t.Fatalf("post-ready source = %v, want store", after.body["source"])
	}
	assertSolutionForSource(t, after, 3, 1)
}

// assertSolutionForSource checks a solution response of an openSession
// session against the library's answer for the source it names: a live
// Hybrid run, or the precomputed store's retrieval. The two sources are
// different algorithms and may disagree with each other; each must agree
// with its own reference on the objective bits and the cluster patterns.
func assertSolutionForSource(t *testing.T, resp response, k, d int) {
	t.Helper()
	rel, err := qagview.ReadCSV(strings.NewReader(makeCSV(3, 3, 2)), "t", map[string]qagview.Kind{"v": qagview.KindFloat})
	if err != nil {
		t.Fatal(err)
	}
	db := qagview.NewDB()
	if err := db.Register(rel); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(testSQL)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := qagview.NewSummarizer(res, 8)
	if err != nil {
		t.Fatal(err)
	}
	var want *qagview.Solution
	switch src := resp.body["source"]; src {
	case "live":
		want, err = sum.Summarize(qagview.Hybrid, qagview.Params{K: k, L: 8, D: d})
	case "store":
		var st *qagview.Store
		if st, err = sum.Precompute(1, 6, []int{0, 1, 2}); err == nil {
			want, err = st.Solution(k, d)
		}
	default:
		t.Fatalf("source = %v, want live or store", src)
	}
	if err != nil {
		t.Fatal(err)
	}
	label := fmt.Sprintf("%v solution (k=%d, d=%d)", resp.body["source"], k, d)
	if got := resp.body["objective"].(float64); math.Float64bits(got) != math.Float64bits(want.AvgValue()) {
		t.Fatalf("%s: objective %v, library %v", label, got, want.AvgValue())
	}
	clusters := resp.body["clusters"].([]any)
	rows := sum.Rows(want)
	if len(clusters) != len(rows) {
		t.Fatalf("%s: %d clusters, library %d", label, len(clusters), len(rows))
	}
	for i, c := range clusters {
		var pat []string
		for _, v := range c.(map[string]any)["pattern"].([]any) {
			pat = append(pat, v.(string))
		}
		if strings.Join(pat, "|") != strings.Join(rows[i].Pattern, "|") {
			t.Fatalf("%s: cluster %d pattern %v, library %v", label, i, pat, rows[i].Pattern)
		}
	}
}

func TestHandlerErrorPaths(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := openSession(t, ts)
	waitReady(t, ts, id)

	cases := []struct {
		name string
		path string
		code int
		want string
	}{
		{"unknown session", "/v1/sessions/s-nope/solution?k=1&d=1", http.StatusNotFound, "unknown session"},
		{"unknown session info", "/v1/sessions/s-nope", http.StatusNotFound, "unknown session"},
		{"missing k", "/v1/sessions/" + id + "/solution?d=1", http.StatusBadRequest, "missing query parameter"},
		{"malformed k", "/v1/sessions/" + id + "/solution?k=abc&d=1", http.StatusBadRequest, "bad query parameter"},
		{"malformed d", "/v1/sessions/" + id + "/solution?k=2&d=1.5", http.StatusBadRequest, "bad query parameter"},
		{"k over range", "/v1/sessions/" + id + "/solution?k=99&d=1", http.StatusBadRequest, "outside the session's range"},
		{"k under range", "/v1/sessions/" + id + "/solution?k=0&d=1", http.StatusBadRequest, "outside the session's range"},
		{"d not precomputed", "/v1/sessions/" + id + "/solution?k=2&d=9", http.StatusBadRequest, "not in the session's precomputed set"},
		{"diff missing param", "/v1/sessions/" + id + "/diff?k1=2&d1=1&k2=3", http.StatusBadRequest, "missing query parameter"},
		{"diff bad range", "/v1/sessions/" + id + "/diff?k1=2&d1=1&k2=99&d2=1", http.StatusBadRequest, "outside the session's range"},
	}
	for _, tc := range cases {
		resp := get(t, ts, tc.path)
		if resp.code != tc.code {
			t.Errorf("%s: code = %d, want %d (%s)", tc.name, resp.code, tc.code, resp.raw)
		}
		if !strings.Contains(resp.raw, tc.want) {
			t.Errorf("%s: body %q does not mention %q", tc.name, resp.raw, tc.want)
		}
	}

	for _, tc := range []struct {
		name string
		body map[string]any
		want string
	}{
		{"missing sql", map[string]any{"l": 5}, "missing sql"},
		{"bad l", map[string]any{"sql": testSQL, "l": -1}, "l must be"},
		{"l over n", map[string]any{"sql": testSQL, "l": 1000}, "exceeds the 18 result groups"},
		{"bad sql", map[string]any{"sql": "DROP TABLE t", "l": 5}, "creating session"},
		{"bad k range", map[string]any{"sql": testSQL, "l": 5, "kmin": 9, "kmax": 2}, "bad k range"},
		{"absurd kmax", map[string]any{"sql": testSQL, "l": 5, "kmax": 1 << 40}, "exceeds the server limit"},
		{"dup ds", map[string]any{"sql": testSQL, "l": 5, "ds": []int{1, 1}}, "duplicate D"},
	} {
		resp := post(t, ts, "/v1/sessions", tc.body)
		if resp.code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400 (%s)", tc.name, resp.code, resp.raw)
		}
		if !strings.Contains(resp.raw, tc.want) {
			t.Errorf("%s: body %q does not mention %q", tc.name, resp.raw, tc.want)
		}
	}

	if resp := post(t, ts, "/v1/tables", map[string]any{"name": "x"}); resp.code != http.StatusBadRequest {
		t.Errorf("table without content: %d", resp.code)
	}
	if resp := post(t, ts, "/v1/tables", map[string]any{
		"name": "x", "csv": "a,v\np,1\n", "rows": [][]string{{"q", "2"}},
	}); resp.code != http.StatusBadRequest {
		t.Errorf("table with both csv and rows must be rejected, got %d %s", resp.code, resp.raw)
	}
	if resp := post(t, ts, "/v1/tables", map[string]any{
		"name": "x", "rows": [][]string{{"q", "2"}},
	}); resp.code != http.StatusBadRequest || !strings.Contains(resp.raw, "need attrs") {
		t.Errorf("inline rows without attrs must be rejected, got %d %s", resp.code, resp.raw)
	}
	if resp := post(t, ts, "/v1/tables", map[string]any{
		"name": "x", "csv": "a,v\np,1\n", "kinds": map[string]string{"v": "complex"},
	}); resp.code != http.StatusBadRequest || !strings.Contains(resp.raw, "unknown kind") {
		t.Errorf("bad kind: %d %s", resp.code, resp.raw)
	}
	if resp := post(t, ts, "/v1/queries", map[string]any{"sql": "SELECT"}); resp.code != http.StatusBadRequest {
		t.Errorf("bad query: %d", resp.code)
	}
}

// gob wire twins of precompute's unexported snapshot types: gob matches
// struct types structurally (by name and field names), so the test can
// fabricate a snapshot whose sweep bottomed out above kmin — the stored
// "k below smallest sweep" state the handler must turn into a 422.
type snapshot struct {
	L, KMin, KMax int
	Ds            []int
	PerD          []snapshotEntry
	NumClusters   int
}

type snapshotEntry struct {
	D         int
	Intervals []intervaltree.Interval
	Avg       []float64
	MinSize   int
}

func TestSolutionBelowSmallestSweep(t *testing.T) {
	// Run a real session once to learn its cluster count and snapshot file
	// name (which embeds the data fingerprint), then overwrite that
	// snapshot with a doctored one whose intervals all start at k=3.
	dir := t.TempDir()
	_, probe := testServer(t, Config{SnapshotDir: dir})
	id := openSession(t, probe)
	info := waitReady(t, probe, id)
	numClusters := int(info.body["clusters"].(float64))
	files, err := filepath.Glob(filepath.Join(dir, "*.store"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot files = %v (err %v), want exactly one", files, err)
	}

	snap := snapshot{
		L: 8, KMin: 1, KMax: 6, Ds: []int{0, 1, 2},
		NumClusters: numClusters,
	}
	for _, d := range snap.Ds {
		snap.PerD = append(snap.PerD, snapshotEntry{
			D:         d,
			Intervals: []intervaltree.Interval{{Lo: 3, Hi: 6, Payload: 0}},
			Avg:       make([]float64, 6),
			MinSize:   3,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := testServer(t, Config{SnapshotDir: dir})
	id2 := openSession(t, ts)
	if id2 != id {
		t.Fatalf("session id not deterministic: %q vs %q", id2, id)
	}
	info = waitReady(t, ts, id)
	if info.body["from_snapshot"] != true {
		t.Fatalf("doctored snapshot not loaded: %s", info.raw)
	}
	resp := get(t, ts, "/v1/sessions/"+id+"/solution?k=2&d=1")
	if resp.code != http.StatusUnprocessableEntity {
		t.Fatalf("k below smallest sweep: code = %d, want 422 (%s)", resp.code, resp.raw)
	}
	if !strings.Contains(resp.raw, "no solution") {
		t.Fatalf("422 body: %s", resp.raw)
	}
	if resp := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1"); resp.code != http.StatusOK {
		t.Fatalf("k at smallest sweep: %d %s", resp.code, resp.raw)
	}
}

func TestSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()

	_, ts := testServer(t, Config{SnapshotDir: dir})
	id := openSession(t, ts)
	info := waitReady(t, ts, id)
	if info.body["from_snapshot"] != false {
		t.Fatal("first build must sweep, not load a snapshot")
	}
	want := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1")

	files, err := filepath.Glob(filepath.Join(dir, "*.store"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot files = %v (err %v), want exactly one", files, err)
	}

	// "Restart": a fresh server over the same snapshot dir decodes instead
	// of re-sweeping.
	_, ts2 := testServer(t, Config{SnapshotDir: dir})
	id2 := openSession(t, ts2)
	if id2 != id {
		t.Fatalf("warm restart changed the session id: %q vs %q", id2, id)
	}
	info2 := waitReady(t, ts2, id2)
	if info2.body["from_snapshot"] != true {
		t.Fatalf("warm restart did not use the snapshot: %s", info2.raw)
	}
	// Decoded stores report zero ReplayStats by design (the sweep ran in a
	// previous process).
	rs := info2.body["replay_stats"].(map[string]any)
	if rs["Replays"].(float64) != 0 {
		t.Fatalf("decoded store reports replays: %s", info2.raw)
	}
	got := get(t, ts2, "/v1/sessions/"+id2+"/solution?k=3&d=1")
	if got.body["objective"].(float64) != want.body["objective"].(float64) {
		t.Fatalf("snapshot solution objective %v != fresh %v", got.body["objective"], want.body["objective"])
	}

	// Changed table data under the same query text must NOT reuse the
	// snapshot: the file name carries the answer-set fingerprint.
	_, ts3 := testServer(t, Config{SnapshotDir: dir})
	if resp := post(t, ts3, "/v1/tables", map[string]any{
		"name": "t", "csv": makeCSV(3, 3, 3), "kinds": map[string]string{"v": "float"},
	}); resp.code != http.StatusCreated {
		t.Fatalf("replacing table: %d %s", resp.code, resp.raw)
	}
	id3 := openSession(t, ts3)
	if id3 != id {
		t.Fatalf("session id should depend only on (sql, params): %q vs %q", id3, id)
	}
	info3 := waitReady(t, ts3, id3)
	if info3.body["from_snapshot"] != false {
		t.Fatal("stale snapshot served for changed table data")
	}
}

func TestSessionDedupeAndEviction(t *testing.T) {
	srv, ts := testServer(t, Config{MaxSessions: 1})

	id := openSession(t, ts)
	again := post(t, ts, "/v1/sessions", map[string]any{
		"sql": testSQL, "l": 8, "kmin": 1, "kmax": 6, "ds": []int{0, 1, 2},
	})
	if again.code != http.StatusOK || again.body["session"] != id || again.body["reused"] != true {
		t.Fatalf("identical request did not reuse the session: %d %s", again.code, again.raw)
	}

	// A different session evicts the first (MaxSessions: 1) and cancels its
	// background build.
	other := post(t, ts, "/v1/sessions", map[string]any{
		"sql": testSQL, "l": 4, "kmin": 1, "kmax": 3, "ds": []int{1},
	})
	if other.code != http.StatusCreated {
		t.Fatalf("second session: %d %s", other.code, other.raw)
	}
	if resp := get(t, ts, "/v1/sessions/"+id+"/solution?k=2&d=1"); resp.code != http.StatusNotFound {
		t.Fatalf("evicted session still served: %d %s", resp.code, resp.raw)
	}
	_, _, stats := srv.sessions.occupancy()
	if stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", stats.Evictions)
	}
	if stats.Builds != 2 {
		t.Fatalf("builds = %d, want 2", stats.Builds)
	}
}

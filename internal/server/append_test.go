package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"qagview"
)

// tableBytes renders a table's contents and data generation through the
// snapshot codec, so equal bytes mean byte-identical tables.
func tableBytes(t *testing.T, srv *Server, name string) []byte {
	t.Helper()
	rel, gen, err := srv.db.tableWithGen(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := qagview.WriteRelationSnapshot(&buf, rel, gen); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tryPost posts body from a goroutine other than the test's: a failure is
// reported with t.Error and returns ok false.
func tryPost(t *testing.T, ts *httptest.Server, path string, body any) (map[string]any, bool) {
	raw, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return nil, false
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Errorf("POST %s: %v", path, err)
		return nil, false
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("POST %s: %d %v %v", path, resp.StatusCode, out, err)
		return nil, false
	}
	return out, true
}

// markerRows is writer w's batch b: two rows naming their batch, so the
// final table shows whether every batch landed once and whole.
func markerRows(w, b int) [][]string {
	a, k := fmt.Sprintf("W%d", w), fmt.Sprintf("K%d", b)
	return [][]string{{a, k, "C0", "1"}, {a, k, "C1", "2"}}
}

// TestConcurrentAppendsLandOnce races appends from many goroutines against
// one durable table, with queries running alongside (run with -race): every
// batch lands exactly once and whole, the acknowledged data versions are
// exactly the dense range after the create, and WAL recovery reproduces the
// table byte for byte.
func TestConcurrentAppendsLandOnce(t *testing.T) {
	const writers, batches = 6, 5
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts) // generation 1, 36 rows
	base := 36

	gens := make(chan int, writers*batches)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				body, ok := tryPost(t, ts, "/v1/tables/t/rows", map[string]any{"rows": markerRows(w, b)})
				if !ok {
					return
				}
				gens <- int(body["data_version"].(float64))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, ok := tryPost(t, ts, "/v1/queries", map[string]any{"sql": testSQL}); !ok {
				return
			}
		}
	}()
	wg.Wait()
	close(gens)
	if t.Failed() {
		return
	}

	seen := make(map[int]bool)
	for g := range gens {
		if g < 2 || g > 1+writers*batches || seen[g] {
			t.Fatalf("acknowledged data_version %d twice or outside [2, %d]", g, 1+writers*batches)
		}
		seen[g] = true
	}
	rel, err := srv.db.table("t")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != base+2*writers*batches {
		t.Fatalf("table has %d rows, want %d", rel.NumRows(), base+2*writers*batches)
	}
	a, b, c := rel.Column(0), rel.Column(1), rel.Column(2)
	landed := make(map[string]int)
	for r := base; r < rel.NumRows(); r += 2 {
		key := a.Str[r] + "/" + b.Str[r]
		if a.Str[r+1]+"/"+b.Str[r+1] != key || c.Str[r] != "C0" || c.Str[r+1] != "C1" {
			t.Fatalf("rows %d and %d do not hold one whole batch", r, r+1)
		}
		landed[key]++
	}
	for w := 0; w < writers; w++ {
		for b := 0; b < batches; b++ {
			if n := landed[fmt.Sprintf("W%d/K%d", w, b)]; n != 1 {
				t.Fatalf("batch W%d K%d landed %d times", w, b, n)
			}
		}
	}

	want := tableBytes(t, srv, "t")
	closeWAL(t, srv)
	ts.Close()
	srv2, _, _ := durableServer(t, dir, Config{})
	if !bytes.Equal(tableBytes(t, srv2, "t"), want) {
		t.Fatal("recovered table differs from the live one")
	}
}

// TestCheckpointDuringAppends runs checkpoints back to back while appends
// continue (run with -race): the snapshot of a table whose arrays an append
// is extending must read only its own rows, and recovery from snapshot plus
// WAL tail must reproduce the live table and its query answers byte for
// byte.
func TestCheckpointDuringAppends(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{WALCheckpointBytes: -1})
	createTestTable(t, ts)

	stop := make(chan struct{})
	var writers, checkpointer sync.WaitGroup
	checkpoints := 0
	checkpointer.Add(1)
	go func() {
		defer checkpointer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := srv.checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			checkpoints++
		}
	}()
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for b := 0; b < 8; b++ {
				if _, ok := tryPost(t, ts, "/v1/tables/t/rows", map[string]any{"rows": markerRows(w, b)}); !ok {
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	checkpointer.Wait()
	if t.Failed() {
		return
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint completed")
	}

	want, wantQuery := tableBytes(t, srv, "t"), queryBody(t, ts)
	closeWAL(t, srv)
	ts.Close()
	srv2, ts2, stats := durableServer(t, dir, Config{})
	if stats.SnapshotsLoaded != 1 {
		t.Fatalf("recover stats: %+v, want the checkpoint's snapshot loaded", stats)
	}
	if !bytes.Equal(tableBytes(t, srv2, "t"), want) {
		t.Fatal("recovered table differs from the live one")
	}
	if got := queryBody(t, ts2); got != wantQuery {
		t.Fatalf("recovered query body differs:\n%s\nvs\n%s", got, wantQuery)
	}
}

// TestInlineCreateKeepsEveryRow creates tables from inline rows that a CSV
// round trip would alter: on a single-column table an empty string is a
// blank CSV line, which the reader skips, and a quoted "\r\n" reads back
// as "\n". Both the live table and its WAL replay must hold every row with
// its exact value.
func TestInlineCreateKeepsEveryRow(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	tables := []map[string]any{
		{"name": "solo", "attrs": []string{"s"}, "rows": [][]string{{""}, {"x"}, {""}}},
		{"name": "pair", "attrs": []string{"s", "n"}, "kinds": map[string]string{"n": "int"},
			"rows": [][]string{{"a\r\nb", "1"}, {"", "-2"}}},
	}
	for _, req := range tables {
		resp := post(t, ts, "/v1/tables", req)
		if resp.code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", req["name"], resp.code, resp.raw)
		}
		if n := len(req["rows"].([][]string)); resp.body["rows"].(float64) != float64(n) {
			t.Fatalf("create %s: %s, want %d rows", req["name"], resp.raw, n)
		}
	}
	if rel, _ := srv.db.table("pair"); rel.Column(0).Str[0] != "a\r\nb" {
		t.Fatalf("inline value = %q, want %q", rel.Column(0).Str[0], "a\r\nb")
	}
	want := map[string][]byte{"solo": tableBytes(t, srv, "solo"), "pair": tableBytes(t, srv, "pair")}
	closeWAL(t, srv)
	ts.Close()

	srv2, _, stats := durableServer(t, dir, Config{})
	if stats.RecordsReplayed != 2 {
		t.Fatalf("recover stats: %+v, want both create records replayed", stats)
	}
	for name, w := range want {
		if !bytes.Equal(tableBytes(t, srv2, name), w) {
			t.Fatalf("recovered %s differs from the live table", name)
		}
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qagview"
	"qagview/internal/lattice"
	"qagview/internal/precompute"
	"qagview/internal/summarize"
)

// histSQL is the history tests' session query: a WHERE that the other
// client's rows (g = 'F') fail, a HAVING threshold, ranked by value.
const histSQL = "SELECT a, b, avg(v) AS val FROM h WHERE g = 'M' GROUP BY a, b HAVING count(*) > 1 ORDER BY val DESC"

const histL = 6

var histDs = []int{1, 2}

// histCols builds the columns of table h (a, b, g text; v float) from rows.
func histCols(t *testing.T, rows [][]string) []qagview.Column {
	t.Helper()
	cols := []qagview.Column{qagview.StringColumn("a", nil), qagview.StringColumn("b", nil), qagview.StringColumn("g", nil), qagview.FloatColumn("v", nil)}
	for _, r := range rows {
		v, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		cols[0].Str = append(cols[0].Str, r[0])
		cols[1].Str = append(cols[1].Str, r[1])
		cols[2].Str = append(cols[2].Str, r[2])
		cols[3].Float = append(cols[3].Float, v)
	}
	return cols
}

func histTable(t *testing.T, rows [][]string) *qagview.Relation {
	t.Helper()
	rel, err := qagview.FromColumns("h", histCols(t, rows)...)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// histRef is the library reference for the session at a data version whose
// table holds rows: the query over them and a cold summarizer. naive is
// the naive index over the same answer set, which fills every cluster at
// build: the history checks the on-demand references against it too.
func histRef(t *testing.T, rows [][]string) (ref *qagview.Summarizer, naive *lattice.Index) {
	t.Helper()
	db := qagview.NewDB()
	if err := db.Register(histTable(t, rows)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(histSQL)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := qagview.NewSummarizer(res, histL)
	if err != nil {
		t.Fatal(err)
	}
	space, err := lattice.NewSpace(res.GroupBy, res.Rows, res.Vals)
	if err != nil {
		t.Fatal(err)
	}
	if naive, err = lattice.BuildIndexNaive(space, histL); err != nil {
		t.Fatal(err)
	}
	return sum, naive
}

// assertSameIDs fails unless two solutions hold the same cluster ids with
// the same objective bits.
func assertSameIDs(t *testing.T, label string, got, want *qagview.Solution) {
	t.Helper()
	same := got.Size() == want.Size() && math.Float64bits(got.AvgValue()) == math.Float64bits(want.AvgValue())
	for i := 0; same && i < got.Size(); i++ {
		same = got.Clusters[i].ID == want.Clusters[i].ID
	}
	if !same {
		t.Fatalf("%s: on-demand and naive index solutions differ", label)
	}
}

func histCSV(rows [][]string) string {
	var sb strings.Builder
	sb.WriteString("a,b,g,v\n")
	for _, r := range rows {
		sb.WriteString(strings.Join(r, ",") + "\n")
	}
	return sb.String()
}

// histBase has a in {a0, a1, a2} (a 2-bit key field: a fourth value
// overflows it) and b in {b0..b4} (a 3-bit field, room for seven values).
// After a rescan re-derives the key layout, a gets a 3-bit field.
// Every (a, b) group has two 'M' rows with an exact average, except
// (a2, b4), which has one and so fails the HAVING; 'F' rows sit beside.
func histBase() [][]string {
	var rows [][]string
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", j)
			base := 2 * (i*5 + j)
			rows = append(rows, []string{a, b, "M", strconv.Itoa(base + 1)}, []string{a, b, "F", "99"})
			if i != 2 || j != 4 {
				rows = append(rows, []string{a, b, "M", strconv.Itoa(base + 3)})
			}
		}
	}
	return rows
}

// spanAttrJSON returns attribute key of a decoded span, or "".
func spanAttrJSON(node map[string]any, key string) string {
	attrs, _ := node["attrs"].([]any)
	for _, a := range attrs {
		if kv, ok := a.(map[string]any); ok && kv["k"] == key {
			s, _ := kv["v"].(string)
			return s
		}
	}
	return ""
}

// refreshSpan returns the session.refresh span of a ?trace=1 response, or
// nil when the read did not refresh.
func refreshSpan(t *testing.T, resp response) map[string]any {
	t.Helper()
	tr, ok := resp.body["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no inline trace in %s", resp.raw)
	}
	sp, _ := findSpanJSON(tr["root"].(map[string]any), "session.refresh")
	return sp
}

// checkHistRead reads the session's solution (traced) and checks it, the
// view's whole answer set, and — once ready — its store against the
// library reference at the view's data_version. It returns the refresh
// path the read took ("" for none).
func checkHistRead(t *testing.T, srv *Server, ts *httptest.Server, id string, rowsAt map[uint64][][]string) string {
	t.Helper()
	resp := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1&expand=1&trace=1")
	if resp.code != http.StatusOK {
		t.Fatalf("solution: %d %s", resp.code, resp.raw)
	}
	dv := uint64(resp.body["data_version"].(float64))
	rows, ok := rowsAt[dv]
	if !ok {
		t.Fatalf("read at data_version %d, which no write produced", dv)
	}
	label := fmt.Sprintf("data_version %d", dv)
	ref, naive := histRef(t, rows)
	path := ""
	if sp := refreshSpan(t, resp); sp != nil {
		path = spanAttrJSON(sp, "path")
	}

	var want *qagview.Solution
	var err error
	switch src := resp.body["source"]; src {
	case "live":
		want, err = ref.Summarize(qagview.Hybrid, qagview.Params{K: 3, L: histL, D: 1})
		if err == nil {
			var nsol *qagview.Solution
			if nsol, err = summarize.Hybrid(naive, qagview.Params{K: 3, L: histL, D: 1}); err == nil {
				assertSameIDs(t, label, want, nsol)
			}
		}
	case "store":
		var st *qagview.Store
		if st, err = ref.Precompute(1, 4, histDs); err == nil {
			want, err = st.Solution(3, 1)
		}
	default:
		t.Fatalf("%s: source %v", label, src)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.body["objective"].(float64); math.Float64bits(got) != math.Float64bits(want.AvgValue()) {
		t.Fatalf("%s: objective %v, library %v", label, got, want.AvgValue())
	}
	var wantClusters []clusterJSON
	for _, r := range ref.Rows(want) {
		c := clusterJSON{Pattern: r.Pattern, Avg: r.Avg, Size: r.Size}
		for _, m := range r.Members {
			c.Members = append(c.Members, memberJSON{Rank: m.Rank, Row: m.Row, Val: m.Val})
		}
		wantClusters = append(wantClusters, c)
	}
	var gotClusters []clusterJSON
	remarshal(t, resp.body["clusters"], &gotClusters)
	if !reflect.DeepEqual(gotClusters, wantClusters) {
		t.Fatalf("%s: clusters %+v, library %+v", label, gotClusters, wantClusters)
	}

	sess, ok := srv.sessions.get(id)
	if !ok {
		t.Fatal("session gone")
	}
	v := sess.currentView()
	if v.dataVersion != dv {
		t.Fatalf("view moved to %d under a single-threaded history", v.dataVersion)
	}
	if got, want := v.sum.Rows(v.sum.LowerBound()), ref.Rows(ref.LowerBound()); !reflect.DeepEqual(got, want) || v.sum.NumClusters() != ref.NumClusters() {
		t.Fatalf("%s: answer set or cluster space differs from the library's", label)
	}

	waitReady(t, ts, id)
	cur := sess.currentView()
	refSt, err := ref.Precompute(1, 4, histDs)
	if err != nil {
		t.Fatal(err)
	}
	naiveSt, err := precompute.Run(naive, histL, 1, 4, histDs)
	if err != nil {
		t.Fatal(err)
	}
	var refEnc, naiveEnc bytes.Buffer
	if refSt.Encode(&refEnc) != nil || naiveSt.Encode(&naiveEnc) != nil || !bytes.Equal(refEnc.Bytes(), naiveEnc.Bytes()) {
		t.Fatalf("%s: the on-demand and naive index stores encode differently", label)
	}
	if cur.build.store.StoredIntervals() != refSt.StoredIntervals() {
		t.Fatalf("%s: store holds %d intervals, a from-scratch Precompute %d", label, cur.build.store.StoredIntervals(), refSt.StoredIntervals())
	}
	for _, d := range histDs {
		for k := 1; k <= 4; k++ {
			got, gerr := cur.build.store.Solution(k, d)
			want, werr := refSt.Solution(k, d)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: store (k=%d, d=%d) err %v, from scratch %v", label, k, d, gerr, werr)
			}
			if gerr == nil && (math.Float64bits(got.AvgValue()) != math.Float64bits(want.AvgValue()) ||
				!reflect.DeepEqual(cur.sum.Rows(got), ref.Rows(want))) {
				t.Fatalf("%s: store (k=%d, d=%d) differs from a from-scratch Precompute", label, k, d)
			}
		}
	}
	return path
}

func remarshal(t *testing.T, in, out any) {
	t.Helper()
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshHistoryMatchesLibrary drives one session through a seeded
// history of table writes, each chosen to take one refresh path: appends
// that add groups, bring a dictionary value that fits its key field, are
// filtered out by the WHERE, move a group across the HAVING threshold, or
// keep a touched group's average bit-identical fold; a value that
// overflows a key field, a sibling generation and a table replaced through
// POST /v1/tables re-run the query. Every read must equal the library
// reference at its data_version, and every store a from-scratch
// Precompute.
func TestRefreshHistoryMatchesLibrary(t *testing.T) {
	srv, ts := testServer(t, Config{})
	rows := histBase()
	resp := post(t, ts, "/v1/tables", map[string]any{"name": "h", "csv": histCSV(rows), "kinds": map[string]string{"v": "float"}})
	if resp.code != http.StatusCreated {
		t.Fatalf("table: %d %s", resp.code, resp.raw)
	}
	rowsAt := map[uint64][][]string{uint64(resp.body["data_version"].(float64)): rows}
	resp = post(t, ts, "/v1/sessions", map[string]any{"sql": histSQL, "l": histL, "kmin": 1, "kmax": 4, "ds": histDs})
	if resp.code != http.StatusCreated {
		t.Fatalf("session: %d %s", resp.code, resp.raw)
	}
	id := resp.body["session"].(string)
	if path := checkHistRead(t, srv, ts, id, rowsAt); path != "" {
		t.Fatalf("fresh session refreshed (%s)", path)
	}

	appendStep := func(batch [][]string) {
		t.Helper()
		r := appendRows(t, ts, "h", batch)
		if r.code != http.StatusOK {
			t.Fatalf("append: %d %s", r.code, r.raw)
		}
		rows = append(append([][]string(nil), rows...), batch...)
		rowsAt[uint64(r.body["data_version"].(float64))] = rows
	}
	var older *qagview.Relation // a generation the sibling step appends to
	var olderRows [][]string
	steps := []struct {
		name, path string
		write      func()
	}{
		{"new groups (the first refresh seeds the fold)", "rescan", func() {
			appendStep([][]string{{"a0", "b0", "M", "40"}, {"a1", "b3", "M", "7"}, {"a2", "b1", "M", "50"}, {"a2", "b1", "M", "52"}})
		}},
		{"new groups", "fold", func() {
			appendStep([][]string{{"a1", "b1", "M", "60"}, {"a0", "b4", "M", "1"}})
		}},
		{"new dictionary value within its key field", "fold", func() {
			appendStep([][]string{{"a0", "b5", "M", "30"}, {"a0", "b5", "M", "31"}, {"a1", "b6", "F", "3"}})
		}},
		{"filtered out by the WHERE", "noop", func() {
			appendStep([][]string{{"a2", "b2", "F", "1000"}, {"a0", "b0", "F", "1000"}})
		}},
		{"group crosses the HAVING threshold", "fold", func() {
			appendStep([][]string{{"a2", "b4", "M", "70"}})
		}},
		{"touched group keeps its average bits", "noop", func() {
			// (a1, b0) holds 11 and 13: another 12 keeps the average 12.
			appendStep([][]string{{"a1", "b0", "M", "12"}})
		}},
		{"key field overflow", "rescan", func() {
			// a3 takes a's Star code, a4 a code spilling into b's field.
			appendStep([][]string{{"a3", "b0", "M", "20"}, {"a3", "b0", "M", "21"}, {"a4", "b0", "M", "22"}, {"a4", "b0", "M", "23"}})
		}},
		{"key field overflow filtered out (diff finds no change)", "noop", func() {
			older, olderRows = mustTable(t, srv, "h"), rows
			appendStep([][]string{{"a5", "b0", "F", "5"}, {"a6", "b0", "F", "5"}, {"a7", "b0", "F", "5"}})
		}},
		{"sibling generation", "rescan", func() {
			batch := [][]string{{"a1", "b2", "M", "90"}, {"a1", "b2", "M", "91"}}
			next, err := older.Append(histCols(t, batch))
			if err != nil {
				t.Fatal(err)
			}
			gen, err := srv.db.register(next, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(append([][]string(nil), olderRows...), batch...)
			rowsAt[gen] = rows
		}},
		{"appends resume folding", "fold", func() {
			appendStep([][]string{{"a2", "b0", "M", "0.5"}})
		}},
		{"table replaced through POST /v1/tables", "rescan", func() {
			rows = append(append([][]string(nil), rows[:20]...), []string{"a4", "b0", "M", "80"}, []string{"a4", "b0", "M", "81"})
			r := post(t, ts, "/v1/tables", map[string]any{"name": "h", "csv": histCSV(rows), "kinds": map[string]string{"v": "float"}})
			if r.code != http.StatusCreated {
				t.Fatalf("replace: %d %s", r.code, r.raw)
			}
			rowsAt[uint64(r.body["data_version"].(float64))] = rows
		}},
		{"appends after the replacement fold", "fold", func() {
			appendStep([][]string{{"a4", "b0", "M", "85"}})
		}},
	}
	for _, st := range steps {
		st.write()
		if got := checkHistRead(t, srv, ts, id, rowsAt); got != st.path {
			t.Fatalf("%s: refresh path %q, want %q", st.name, got, st.path)
		}
	}
}

func mustTable(t *testing.T, srv *Server, name string) *qagview.Relation {
	t.Helper()
	rel, err := srv.db.table(name)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestRefreshLabelsItsSnapshot pins that a refreshed view's data_version
// labels exactly the data it read: a generation installed right after the
// refresh takes its catalog snapshot must not be served under the older
// label (it is picked up by the next refresh).
func TestRefreshLabelsItsSnapshot(t *testing.T) {
	srv, ts := testServer(t, Config{})
	rows := histBase()
	if r := post(t, ts, "/v1/tables", map[string]any{"name": "h", "csv": histCSV(rows), "kinds": map[string]string{"v": "float"}}); r.code != http.StatusCreated {
		t.Fatalf("table: %d %s", r.code, r.raw)
	}
	resp := post(t, ts, "/v1/sessions", map[string]any{"sql": histSQL, "l": histL, "kmin": 1, "kmax": 4, "ds": histDs})
	if resp.code != http.StatusCreated {
		t.Fatalf("session: %d %s", resp.code, resp.raw)
	}
	sess, _ := srv.sessions.get(resp.body["session"].(string))
	waitReady(t, ts, sess.ID)

	rowsAt := map[uint64][][]string{}
	first := [][]string{{"a0", "b0", "M", "40"}}
	r := appendRows(t, ts, "h", first)
	rows = append(rows, first...)
	rowsAt[uint64(r.body["data_version"].(float64))] = rows
	late := [][]string{{"a1", "b1", "M", "70"}, {"a1", "b1", "M", "72"}}
	lateRows := append(append([][]string(nil), rows...), late...)

	// The freshness check outside the refresh takes the first snapshot;
	// the refresh's own is the second. Install a generation right after it.
	calls := 0
	srv.db.afterSnapshot = func() {
		if calls++; calls != 2 {
			return
		}
		gen, err := srv.db.update("h", func(rel *qagview.Relation) (*qagview.Relation, error) {
			return rel.Append(histCols(t, late))
		}, nil)
		if err != nil {
			t.Error(err)
		}
		rowsAt[gen] = lateRows
	}
	v, err := srv.sessions.freshen(context.Background(), srv.db, sess)
	srv.db.afterSnapshot = nil
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		want, ok := rowsAt[v.dataVersion]
		if !ok {
			t.Fatalf("view labeled data_version %d, which no write produced", v.dataVersion)
		}
		ref, _ := histRef(t, want)
		if !reflect.DeepEqual(v.sum.Rows(v.sum.LowerBound()), ref.Rows(ref.LowerBound())) {
			t.Fatalf("view at data_version %d does not hold that version's answers", v.dataVersion)
		}
		if v, err = srv.sessions.freshen(context.Background(), srv.db, sess); err != nil {
			t.Fatal(err)
		}
	}
	if v.dataVersion != srv.db.generationSum(sess.Tables) {
		t.Fatalf("final view at %d, table at %d", v.dataVersion, srv.db.generationSum(sess.Tables))
	}
}

// TestFoldingRefreshRacesAppends races appenders against readers whose
// reads fold the batches into the session: every read must equal the
// library reference at its data_version (the table's first rows up to
// that version), and so must the final view.
func TestFoldingRefreshRacesAppends(t *testing.T) {
	srv, ts := testServer(t, Config{})
	base := histBase()
	if r := post(t, ts, "/v1/tables", map[string]any{"name": "h", "csv": histCSV(base), "kinds": map[string]string{"v": "float"}}); r.code != http.StatusCreated {
		t.Fatalf("table: %d %s", r.code, r.raw)
	}
	resp := post(t, ts, "/v1/sessions", map[string]any{"sql": histSQL, "l": histL, "kmin": 1, "kmax": 4, "ds": histDs})
	if resp.code != http.StatusCreated {
		t.Fatalf("session: %d %s", resp.code, resp.raw)
	}
	id := resp.body["session"].(string)

	const writers, batches = 3, 6
	var mu sync.Mutex
	rowsAtGen := map[uint64]int{mustGen(t, srv, "h"): len(base)}
	type read struct {
		dv  uint64
		sol response
	}
	var reads []read
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				g := "M"
				if (w+b)%3 == 0 {
					g = "F"
				}
				batch := [][]string{
					{fmt.Sprintf("a%d", (w+b)%3), fmt.Sprintf("b%d", b%5), g, strconv.Itoa(10*w + b)},
					{fmt.Sprintf("a%d", (w+b)%3), fmt.Sprintf("b%d", b%5), g, strconv.Itoa(10*w + b + 1)},
				}
				r, ok := tryPost(t, ts, "/v1/tables/h/rows", map[string]any{"rows": batch})
				if !ok {
					return
				}
				mu.Lock()
				rowsAtGen[uint64(r["data_version"].(float64))] = int(r["rows"].(float64))
				mu.Unlock()
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				sol := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=1&expand=1")
				if sol.code != http.StatusOK {
					t.Errorf("solution: %d %s", sol.code, sol.raw)
					return
				}
				mu.Lock()
				reads = append(reads, read{uint64(sol.body["data_version"].(float64)), sol})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	final := mustTable(t, srv, "h")
	prefix := func(dv uint64) [][]string {
		n, ok := rowsAtGen[dv]
		if !ok {
			t.Fatalf("read at data_version %d, which no write produced", dv)
		}
		out := make([][]string, n)
		for i := range out {
			out[i] = []string{final.StringAt(0, i), final.StringAt(1, i), final.StringAt(2, i), final.StringAt(3, i)}
		}
		return out
	}
	for _, r := range reads {
		ref, _ := histRef(t, prefix(r.dv))
		want, err := ref.Summarize(qagview.Hybrid, qagview.Params{K: 3, L: histL, D: 1})
		if r.sol.body["source"] == "store" {
			var st *qagview.Store
			if st, err = ref.Precompute(1, 4, histDs); err == nil {
				want, err = st.Solution(3, 1)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := r.sol.body["objective"].(float64); math.Float64bits(got) != math.Float64bits(want.AvgValue()) {
			t.Fatalf("read at data_version %d (%v): objective %v, library %v", r.dv, r.sol.body["source"], got, want.AvgValue())
		}
	}
	rowsAt := map[uint64][][]string{}
	for dv := range rowsAtGen {
		rowsAt[dv] = prefix(dv)
	}
	checkHistRead(t, srv, ts, id, rowsAt)
}

func mustGen(t *testing.T, srv *Server, name string) uint64 {
	t.Helper()
	_, gen, err := srv.db.tableWithGen(name)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestRefreshSpansAndDeferredBuild pins where a fold's work shows up and
// when the successor build runs: a traced fresh read's session.refresh
// takes the fold path (engine.fold and delta.rebase, no engine.execute), the
// build it starts waits for that read to be answered, and its
// session.build_store trace warms the sweeper (delta.warm) before the sweep.
func TestRefreshSpansAndDeferredBuild(t *testing.T) {
	srv, ts := testServer(t, Config{TraceEnabled: true})
	if r := post(t, ts, "/v1/tables", map[string]any{"name": "h", "csv": histCSV(histBase()), "kinds": map[string]string{"v": "float"}}); r.code != http.StatusCreated {
		t.Fatalf("table: %d %s", r.code, r.raw)
	}
	resp := post(t, ts, "/v1/sessions", map[string]any{"sql": histSQL, "l": histL, "kmin": 1, "kmax": 4, "ds": histDs})
	if resp.code != http.StatusCreated {
		t.Fatalf("session: %d %s", resp.code, resp.raw)
	}
	id := resp.body["session"].(string)
	waitReady(t, ts, id)
	appendRows(t, ts, "h", [][]string{{"a0", "b0", "M", "40"}})
	get(t, ts, "/v1/sessions/"+id+"/solution?k=2&d=1") // the first refresh seeds the fold
	waitReady(t, ts, id)

	appendRows(t, ts, "h", [][]string{{"a1", "b1", "M", "60"}})
	sol := get(t, ts, "/v1/sessions/"+id+"/solution?k=2&d=1&trace=1")
	sp := refreshSpan(t, sol)
	if sp == nil || spanAttrJSON(sp, "path") != "fold" || spanAttrJSON(sp, "rows_folded") != "1" {
		t.Fatalf("traced fresh read did not fold one row: %s", sol.raw)
	}
	if _, ok := findSpanJSON(sp, "engine.fold"); !ok {
		t.Fatalf("session.refresh has no engine.fold span: %s", sol.raw)
	}
	if _, ok := findSpanJSON(sp, "engine.execute"); ok {
		t.Fatalf("a fold ran engine.execute: %s", sol.raw)
	}
	if _, ok := findSpanJSON(sp, "delta.rebase"); !ok {
		t.Fatalf("a changed fold did not rebase: %s", sol.raw)
	}
	waitReady(t, ts, id)
	var build map[string]any
	for _, tr := range get(t, ts, "/debug/traces").body["traces"].([]any) {
		if s := tr.(map[string]any); s["name"] == "session.build_store" {
			build = get(t, ts, "/debug/traces/"+s["id"].(string)).body["root"].(map[string]any)
			break
		}
	}
	if build == nil {
		t.Fatal("no session.build_store trace")
	}
	kids, _ := build["children"].([]any)
	if len(kids) < 2 || kids[0].(map[string]any)["name"] != "delta.warm" || kids[1].(map[string]any)["name"] != "precompute.run" {
		t.Fatalf("build_store children %v, want delta.warm then precompute.run", kids)
	}

	// A refresh's build starts only once the read that triggered it is
	// over: here, once its context ends.
	appendRows(t, ts, "h", [][]string{{"a2", "b2", "M", "70"}})
	sess, _ := srv.sessions.get(id)
	ctx, cancel := context.WithCancel(context.Background())
	v, err := srv.sessions.freshen(ctx, srv.db, sess)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-v.build.ready:
		t.Fatal("the build finished while the read that triggered it was still open")
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	<-v.build.ready
	if v.build.store == nil {
		t.Fatalf("build failed: %v", v.build.buildErr)
	}
}

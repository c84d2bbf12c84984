package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"qagview"
	"qagview/internal/obs"
)

// writeJSON renders v as the response body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr renders a JSON error envelope, stamped with the request id when
// the middleware stack assigned one, so client-side error reports correlate
// with server logs and traces.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	if rid := requestID(w); rid != "" {
		body["request_id"] = rid
	}
	writeJSON(w, code, body)
}

// inlineTrace adds the request's span tree to a response body when the
// client opted in with ?trace=1. The snapshot is taken before the trace
// finishes, so the root span renders open; all the work spans are complete.
func inlineTrace(body map[string]any, w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("trace") != "1" {
		return
	}
	if tr := requestTrace(w); tr != nil {
		body["trace"] = tr.Snapshot()
	}
}

// decodeBody strictly decodes the request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// ---- tables ----

type tableRequest struct {
	// Name is the table name queries refer to.
	Name string `json:"name"`
	// CSV is the table content with a header row; mutually exclusive with
	// Attrs/Rows.
	CSV string `json:"csv,omitempty"`
	// Attrs and Rows carry the table inline: a header plus rendered rows.
	Attrs []string   `json:"attrs,omitempty"`
	Rows  [][]string `json:"rows,omitempty"`
	// Kinds maps column names to "string", "int", or "float" (default
	// string).
	Kinds map[string]string `json:"kinds,omitempty"`
}

func parseKinds(kinds map[string]string) (map[string]qagview.Kind, error) {
	if kinds == nil {
		return nil, nil
	}
	out := make(map[string]qagview.Kind, len(kinds))
	for col, k := range kinds {
		switch strings.ToLower(k) {
		case "string", "text":
			out[col] = qagview.KindString
		case "int", "integer":
			out[col] = qagview.KindInt
		case "float", "double", "real":
			out[col] = qagview.KindFloat
		default:
			return nil, fmt.Errorf("column %q: unknown kind %q (want string, int, or float)", col, k)
		}
	}
	return out, nil
}

// buildRelation validates a table request and parses it into a relation.
// It is the single parse path for both the live create handler and WAL
// replay — recovery re-runs exactly this code, which is what makes the
// recovered table bit-identical to the acknowledged one. Inline rows go
// through parseRows, the typed per-value parser appends use too.
func buildRelation(req tableRequest) (*qagview.Relation, error) {
	if req.Name == "" {
		return nil, fmt.Errorf("missing table name")
	}
	hasCSV := req.CSV != ""
	hasInline := len(req.Attrs) > 0 || len(req.Rows) > 0
	if hasCSV == hasInline {
		return nil, fmt.Errorf("provide exactly one of csv or attrs+rows")
	}
	if hasInline && len(req.Attrs) == 0 {
		return nil, fmt.Errorf("inline rows need attrs")
	}
	kinds, err := parseKinds(req.Kinds)
	if err != nil {
		return nil, fmt.Errorf("bad kinds: %v", err)
	}
	var rel *qagview.Relation
	if hasCSV {
		rel, err = qagview.ReadCSV(strings.NewReader(req.CSV), req.Name, kinds)
	} else {
		cols := make([]qagview.Column, len(req.Attrs))
		for i, a := range req.Attrs {
			cols[i] = qagview.Column{Name: a, Kind: kinds[a]} // absent: KindString
		}
		if err = parseRows(cols, req.Rows); err == nil {
			rel, err = qagview.FromColumns(req.Name, cols...)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("loading table: %v", err)
	}
	return rel, nil
}

// parseRows parses rendered rows, one value per column, into the empty
// typed columns cols names. Each value is parsed on its own and never
// round-tripped through CSV, whose blank-line skipping would silently drop
// a single-column row holding an empty string.
func parseRows(cols []qagview.Column, rows [][]string) error {
	for i := range cols {
		switch c := &cols[i]; c.Kind {
		case qagview.KindString:
			c.Str = make([]string, 0, len(rows))
		case qagview.KindInt:
			c.Int = make([]int64, 0, len(rows))
		case qagview.KindFloat:
			c.Float = make([]float64, 0, len(rows))
		}
	}
	for ri, row := range rows {
		if len(row) != len(cols) {
			return fmt.Errorf("row %d has %d values, want %d", ri, len(row), len(cols))
		}
		for i := range cols {
			c := &cols[i]
			switch c.Kind {
			case qagview.KindString:
				c.Str = append(c.Str, row[i])
			case qagview.KindInt:
				v, err := strconv.ParseInt(row[i], 10, 64)
				if err != nil {
					return fmt.Errorf("row %d column %q: %v", ri, c.Name, err)
				}
				c.Int = append(c.Int, v)
			case qagview.KindFloat:
				v, err := strconv.ParseFloat(row[i], 64)
				if err != nil {
					return fmt.Errorf("row %d column %q: %v", ri, c.Name, err)
				}
				c.Float = append(c.Float, v)
			}
		}
	}
	return nil
}

// stageRecord builds the WAL staging hook for a mutating request, or nil
// when durability is off. The record payload is the request JSON itself, so
// replay re-runs the identical parse-and-apply path the live request took.
// Traced requests get a "wal.append" span around the durable wait, covering
// the group-commit fsync the acknowledgement blocks on.
func (s *Server) stageRecord(ctx context.Context, w http.ResponseWriter, op byte, table string, req any) (func(uint64) func() error, bool) {
	if s.dur == nil {
		return nil, true
	}
	l, err := s.dur.ready()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return nil, false
	}
	payload, err := json.Marshal(req)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encoding WAL record: %v", err)
		return nil, false
	}
	stage := s.dur.stageFunc(l, op, table, payload)
	parent := obs.FromContext(ctx)
	if parent == nil {
		return stage, true
	}
	return func(gen uint64) func() error {
		wait := stage(gen)
		return func() error {
			sp := parent.Child("wal.append")
			sp.SetAttr("table", table)
			err := wait()
			sp.End()
			return err
		}
	}, true
}

// writeDBErr maps a catalog write error: durability failures are 503 (the
// write may be applied in memory but was not made durable, and the log has
// gone fail-stop), unknown tables 404, everything else 400.
func writeDBErr(w http.ResponseWriter, verb string, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, errDurability):
		code = http.StatusServiceUnavailable
	case errors.Is(err, qagview.ErrUnknownTable):
		code = http.StatusNotFound
	}
	writeErr(w, code, verb+": %v", err)
}

func (s *Server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	var req tableRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rel, err := buildRelation(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	stage, ok := s.stageRecord(r.Context(), w, walOpCreate, req.Name, req)
	if !ok {
		return
	}
	gen, err := s.db.register(rel, stage)
	if err != nil {
		writeDBErr(w, "registering table", err)
		return
	}
	s.maybeCheckpoint()
	writeJSON(w, http.StatusCreated, map[string]any{
		"table":        req.Name,
		"rows":         rel.NumRows(),
		"cols":         rel.NumCols(),
		"data_version": gen,
	})
}

func (s *Server) handleListTables(w http.ResponseWriter, r *http.Request) {
	names := s.db.tables()
	versions := make(map[string]uint64, len(names))
	for _, name := range names {
		versions[name] = s.db.generation(name)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tables":        names,
		"data_versions": versions,
	})
}

// ---- live-table appends ----

type appendRequest struct {
	// Rows carries the new rows inline, one value per table column, in the
	// table's column order.
	Rows [][]string `json:"rows,omitempty"`
	// CSV carries the new rows as CSV whose header row must name the table's
	// columns in order; mutually exclusive with Rows.
	CSV string `json:"csv,omitempty"`
}

// handleAppendRows appends rows to a loaded table, bumping its data
// generation. The append runs under the catalog write lock in O(batch): the
// successor relation shares the table's column arrays (Relation.Append), and
// queries already running keep reading their snapshot, which never sees the
// new rows. Sessions over the table refresh lazily on their next read.
func (s *Server) handleAppendRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	var req appendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	hasCSV := req.CSV != ""
	if hasCSV == (len(req.Rows) > 0) {
		writeErr(w, http.StatusBadRequest, "provide exactly one of rows or csv")
		return
	}
	stage, ok := s.stageRecord(r.Context(), w, walOpAppend, name, req)
	if !ok {
		return
	}
	appended, total := 0, 0
	gen, err := s.db.update(name, func(rel *qagview.Relation) (*qagview.Relation, error) {
		next, n, err := appendToRelation(rel, req)
		if err != nil {
			return nil, err
		}
		appended, total = n, rel.NumRows()+n
		return next, nil // nil for a zero-row batch: table and generation stay
	}, stage) // zero-row batches return before staging: nothing is logged
	if err != nil {
		writeDBErr(w, "appending rows", err)
		return
	}
	s.maybeCheckpoint()
	writeJSON(w, http.StatusOK, map[string]any{
		"table":        name,
		"appended":     appended,
		"rows":         total,
		"data_version": gen,
	})
}

// appendToRelation parses the request rows against the table's schema into
// fresh columns — CSV batches through ReadCSV, inline rows through
// parseRows — validates the whole batch, and only then calls rel.Append,
// which shares rel's column arrays and leaves rel unchanged. It is the one
// append path of the live handler and WAL replay. A batch with zero rows
// returns a nil relation (db.update treats it as a no-op that leaves the
// data generation alone).
func appendToRelation(rel *qagview.Relation, req appendRequest) (*qagview.Relation, int, error) {
	batch := make([]qagview.Column, rel.NumCols())
	for i := range batch {
		c := rel.Column(i)
		batch[i] = qagview.Column{Name: c.Name, Kind: c.Kind}
	}
	if req.CSV != "" {
		kinds := make(map[string]qagview.Kind, len(batch))
		for _, c := range batch {
			kinds[c.Name] = c.Kind
		}
		csvRel, err := qagview.ReadCSV(strings.NewReader(req.CSV), rel.Name(), kinds)
		if err != nil {
			return nil, 0, err
		}
		batch = make([]qagview.Column, csvRel.NumCols())
		for i := range batch {
			batch[i] = *csvRel.Column(i)
		}
	} else if err := parseRows(batch, req.Rows); err != nil {
		return nil, 0, err
	}
	next, err := rel.Append(batch)
	if err != nil || next == rel {
		return nil, 0, err
	}
	return next, next.NumRows() - rel.NumRows(), nil
}

// ---- queries ----

type queryRequest struct {
	SQL string `json:"sql"`
	// Limit bounds the rows echoed back (default 10; the full ranked result
	// stays server-side — sessions re-run the query).
	Limit int `json:"limit,omitempty"`
	// Profile adds a per-operator execution profile (rows, batches, wall
	// time — EXPLAIN ANALYZE over the vectorized pipeline) to the response.
	Profile bool `json:"profile,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeErr(w, http.StatusBadRequest, "missing sql")
		return
	}
	var extra []qagview.QueryOption
	if req.Profile {
		extra = append(extra, qagview.ExecProfile())
	}
	res, err := s.db.query(r.Context(), req.SQL, extra...)
	if err != nil {
		if isDeadline(err) {
			writeErr(w, http.StatusServiceUnavailable, "query canceled: %v", err)
			return
		}
		if errors.Is(err, qagview.ErrUnknownTable) {
			writeErr(w, http.StatusNotFound, "query failed: %v", err)
			return
		}
		writeErr(w, http.StatusBadRequest, "query failed: %v", err)
		return
	}
	limit := req.Limit
	if limit <= 0 {
		limit = 10
	}
	if limit > res.N() {
		limit = res.N()
	}
	body := map[string]any{
		"group_by": res.GroupBy,
		"val_name": res.ValName,
		"tables":   res.Tables,
		"n":        res.N(),
		"rows":     res.Rows[:limit],
		"vals":     res.Vals[:limit],
	}
	if req.Profile {
		body["profile"] = res.Profile
		body["profile_text"] = res.Profile.String()
	}
	inlineTrace(body, w, r)
	writeJSON(w, http.StatusOK, body)
}

// ---- sessions ----

// maxSessionKMax caps a session's kmax: beyond this the precompute grid
// (candidate pool c*kmax, per-D arrays) stops being an interactivity aid and
// becomes a memory bomb a single request could throw.
const maxSessionKMax = 4096

type sessionRequest struct {
	SQL  string `json:"sql"`
	L    int    `json:"l"`
	KMin int    `json:"kmin,omitempty"`
	KMax int    `json:"kmax,omitempty"`
	Ds   []int  `json:"ds,omitempty"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeErr(w, http.StatusBadRequest, "missing sql")
		return
	}
	if req.L < 1 {
		writeErr(w, http.StatusBadRequest, "l must be >= 1, got %d", req.L)
		return
	}
	if req.KMin == 0 {
		req.KMin = 1
	}
	if req.KMax == 0 {
		req.KMax = 12
	}
	if len(req.Ds) == 0 {
		req.Ds = []int{1, 2, 3}
	}
	if req.KMin < 1 || req.KMin > req.KMax {
		writeErr(w, http.StatusBadRequest, "bad k range [%d, %d]", req.KMin, req.KMax)
		return
	}
	// Bound the grid: kmax sizes the shared Fixed-Order pool and the per-D
	// value arrays, so an absurd value must fail here, not OOM the
	// background build.
	if req.KMax > maxSessionKMax {
		writeErr(w, http.StatusBadRequest, "kmax = %d exceeds the server limit %d", req.KMax, maxSessionKMax)
		return
	}
	sess, reused, err := s.sessions.open(r.Context(), s.db, req.SQL, req.L, req.KMin, req.KMax, req.Ds)
	if err != nil {
		if isDeadline(err) {
			writeErr(w, http.StatusServiceUnavailable, "creating session: %v", err)
			return
		}
		if errors.Is(err, qagview.ErrUnknownTable) {
			writeErr(w, http.StatusNotFound, "creating session: %v", err)
			return
		}
		writeErr(w, http.StatusBadRequest, "creating session: %v", err)
		return
	}
	// A reused session may predate table appends; reconcile it like every
	// read path so the create response's data_version is never stale.
	v, err := s.sessions.freshen(r.Context(), s.db, sess)
	if err != nil {
		writeErr(w, http.StatusConflict, "session %s is stale and could not refresh: %v", sess.ID, err)
		return
	}
	code := http.StatusCreated
	if reused {
		code = http.StatusOK
	}
	body := s.sessionInfo(sess, v, reused)
	inlineTrace(body, w, r)
	writeJSON(w, code, body)
}

func (s *Server) sessionInfo(sess *session, v *sessionView, reused bool) map[string]any {
	info := map[string]any{
		"session":      sess.ID,
		"table":        sess.Table,
		"tables":       sess.Tables,
		"l":            sess.L,
		"kmin":         sess.KMin,
		"kmax":         sess.KMax,
		"ds":           sess.Ds,
		"n":            v.sum.N(),
		"m":            v.sum.M(),
		"attrs":        v.sum.Attrs(),
		"clusters":     v.sum.NumClusters(),
		"reused":       reused,
		"data_version": v.dataVersion,
	}
	st, buildErr, ready := v.storeIfReady()
	info["store_ready"] = ready && buildErr == nil
	if buildErr != nil {
		info["store_error"] = buildErr.Error()
	}
	if st != nil {
		info["store_bytes"] = st.SizeBytes()
		info["store_intervals"] = st.StoredIntervals()
		info["store_generation"] = st.Generation()
		info["from_snapshot"] = v.build.fromSnapshot
		// Decoded stores report zero ReplayStats by design: the sweep ran in
		// a previous process.
		info["replay_stats"] = st.ReplayStats()
	}
	return info
}

func (s *Server) session(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	sess, ok := s.sessions.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session %q (expired, evicted, or never created)", id)
		return nil, false
	}
	return sess, true
}

// freshSession resolves the session and its current view, lazily refreshing
// a stale session (the table's data generation moved past the view's) before
// serving. A failed refresh is a 409: the session exists but cannot be
// reconciled with the new data (e.g. the table shrank below its L).
func (s *Server) freshSession(w http.ResponseWriter, r *http.Request) (*session, *sessionView, bool) {
	sess, ok := s.session(w, r)
	if !ok {
		return nil, nil, false
	}
	v, err := s.sessions.freshen(r.Context(), s.db, sess)
	if err != nil {
		writeErr(w, http.StatusConflict, "session %s is stale and could not refresh: %v", sess.ID, err)
		return nil, nil, false
	}
	return sess, v, true
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, v, ok := s.freshSession(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.sessionInfo(sess, v, true))
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		writeErr(w, http.StatusNotFound, "unknown session %q (expired, evicted, or never created)", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"session": id, "deleted": true})
}

// ---- solutions ----

// intParam parses a required integer query parameter.
func intParam(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		writeErr(w, http.StatusBadRequest, "missing query parameter %q", name)
		return 0, false
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad query parameter %s=%q: %v", name, raw, err)
		return 0, false
	}
	return v, true
}

// checkParams validates (k, d) against the session's precomputed grid.
func checkParams(w http.ResponseWriter, sess *session, k, d int) bool {
	if k < sess.KMin || k > sess.KMax {
		writeErr(w, http.StatusBadRequest, "k = %d outside the session's range [%d, %d]", k, sess.KMin, sess.KMax)
		return false
	}
	for _, have := range sess.Ds {
		if have == d {
			return true
		}
	}
	writeErr(w, http.StatusBadRequest, "d = %d not in the session's precomputed set %v", d, sess.Ds)
	return false
}

// solutionFor retrieves the (k, d) solution: from the view's precomputed
// store when the background build has finished, otherwise from a live Hybrid
// run over the view's summarizer — the store is an interactivity
// optimization, never a blocking dependency. A live run records its
// evaluation counts on sp when sp is traced.
func solutionFor(sess *session, v *sessionView, k, d int, sp *obs.Span) (*qagview.Solution, string, error) {
	st, buildErr, ready := v.storeIfReady()
	if ready && buildErr == nil {
		sol, err := st.Solution(k, d)
		return sol, "store", err
	}
	p := qagview.Params{K: k, L: sess.L, D: d}
	if sp == nil {
		sol, err := v.sum.Summarize(qagview.Hybrid, p)
		return sol, "live", err
	}
	var stats qagview.Stats
	sol, err := v.sum.Summarize(qagview.Hybrid, p, qagview.WithStats(&stats))
	sp.SetInt("full_evals", int64(stats.FullEvals))
	sp.SetInt("delta_evals", int64(stats.DeltaEvals))
	return sol, "live", err
}

type clusterJSON struct {
	Pattern []string     `json:"pattern"`
	Avg     float64      `json:"avg"`
	Size    int          `json:"size"`
	Members []memberJSON `json:"members,omitempty"`
}

type memberJSON struct {
	Rank int      `json:"rank"`
	Row  []string `json:"row"`
	Val  float64  `json:"val"`
}

func renderSolution(v *sessionView, sol *qagview.Solution, expand bool) []clusterJSON {
	rows := v.sum.Rows(sol)
	out := make([]clusterJSON, len(rows))
	for i, row := range rows {
		out[i] = clusterJSON{Pattern: row.Pattern, Avg: row.Avg, Size: row.Size}
		if expand {
			for _, m := range row.Members {
				out[i].Members = append(out[i].Members, memberJSON{Rank: m.Rank, Row: m.Row, Val: m.Val})
			}
		}
	}
	return out
}

func (s *Server) handleSolution(w http.ResponseWriter, r *http.Request) {
	sess, v, ok := s.freshSession(w, r)
	if !ok {
		return
	}
	k, ok := intParam(w, r, "k")
	if !ok {
		return
	}
	d, ok := intParam(w, r, "d")
	if !ok {
		return
	}
	if !checkParams(w, sess, k, d) {
		return
	}
	_, sp := obs.StartSpan(r.Context(), "solution")
	sp.SetInt("k", int64(k))
	sp.SetInt("d", int64(d))
	sol, source, err := solutionFor(sess, v, k, d, sp)
	sp.SetAttr("source", source)
	sp.End()
	if err != nil {
		// In-range parameters the sweep has no solution for (k below the
		// smallest size the merge reached for this D).
		writeErr(w, http.StatusUnprocessableEntity, "no solution for k=%d, d=%d: %v", k, d, err)
		return
	}
	expand := r.URL.Query().Get("expand") == "1"
	body := map[string]any{
		"session":      sess.ID,
		"k":            k,
		"d":            d,
		"source":       source,
		"data_version": v.dataVersion,
		"objective":    sol.AvgValue(),
		"covered":      len(sol.Covered),
		"clusters":     renderSolution(v, sol, expand),
	}
	inlineTrace(body, w, r)
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleGuidance(w http.ResponseWriter, r *http.Request) {
	sess, v, ok := s.freshSession(w, r)
	if !ok {
		return
	}
	st, buildErr, ready := v.storeIfReady()
	if !ready {
		writeErr(w, http.StatusConflict, "guidance needs the precomputed store; the background build is still running")
		return
	}
	if buildErr != nil {
		writeErr(w, http.StatusInternalServerError, "store build failed: %v", buildErr)
		return
	}
	g := st.Guidance()
	series := make(map[string][]float64, len(g.Series))
	for d, vals := range g.Series {
		series[strconv.Itoa(d)] = vals
	}
	minSizes := make(map[string]int, len(g.MinSizes))
	for d, ms := range g.MinSizes {
		minSizes[strconv.Itoa(d)] = ms
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session":      sess.ID,
		"kmin":         g.KMin,
		"kmax":         g.KMax,
		"data_version": v.dataVersion,
		"series":       series,
		"min_sizes":    minSizes,
	})
}

// ---- diffs ----

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	sess, v, ok := s.freshSession(w, r)
	if !ok {
		return
	}
	params := make([]int, 4)
	for i, name := range []string{"k1", "d1", "k2", "d2"} {
		v, ok := intParam(w, r, name)
		if !ok {
			return
		}
		params[i] = v
	}
	k1, d1, k2, d2 := params[0], params[1], params[2], params[3]
	if !checkParams(w, sess, k1, d1) || !checkParams(w, sess, k2, d2) {
		return
	}
	prev, prevSrc, err := solutionFor(sess, v, k1, d1, nil)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "no solution for k1=%d, d1=%d: %v", k1, d1, err)
		return
	}
	next, nextSrc, err := solutionFor(sess, v, k2, d2, nil)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "no solution for k2=%d, d2=%d: %v", k2, d2, err)
		return
	}
	diff, err := v.sum.Compare(prev, next)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "diff failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session":      sess.ID,
		"data_version": v.dataVersion,
		"from":         map[string]any{"k": k1, "d": d1, "source": prevSrc},
		"to":           map[string]any{"k": k2, "d": d2, "source": nextSrc},
		"left":         renderSolution(v, prev, false),
		"right":        renderSolution(v, next, false),
		"overlap":      diff.M,
		"left_top":     diff.LeftTop,
		"right_top":    diff.RightTop,
	})
}

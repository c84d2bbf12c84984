// Package server implements qagviewd: an HTTP/JSON service hosting
// concurrent interactive-exploration sessions over the qagview engine — the
// serving face of the paper's system (Section 7.1's client/server split).
//
// A session is a (query, L) Summarizer plus a (k, D) precompute Store. The
// store builds lazily in one background goroutine per session; solution and
// diff reads fall back to live summarization until it is ready, so no read
// path ever blocks on a build. Sessions live in a byte-accounted LRU;
// evicting one cancels its in-flight sweep through the context threaded
// into Precompute. Identical concurrent session requests are deduplicated
// with a singleflight group, and finished stores are snapshotted with
// Store.Encode so a warm restart decodes instead of re-sweeping.
//
// With a WAL directory configured the live tables are durable: every table
// create and row append is written to a write-ahead log and fsynced before
// the request is acknowledged, and Recover rebuilds the exact acknowledged
// state — snapshots plus log replay — after a crash. See durable.go.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qagview"
	"qagview/internal/obs"
)

// Config sizes the server.
type Config struct {
	// MaxSessions caps the number of live sessions (LRU-evicted beyond it).
	// 0 means the default of 64.
	MaxSessions int
	// MaxCacheBytes caps the summed approximate bytes of live sessions
	// (summarizer + store). 0 means the default of 256 MiB; negative means
	// unlimited.
	MaxCacheBytes int64
	// SnapshotDir, when non-empty, persists finished precompute stores so
	// warm restarts skip the sweep. The directory must exist.
	SnapshotDir string
	// ExecParallelism bounds the morsel worker pool of query execution
	// (session builds, refreshes, and /v1/queries). 0 means GOMAXPROCS;
	// results are bit-identical at any setting.
	ExecParallelism int
	// WALDir, when non-empty, makes live tables durable: creates and
	// appends are logged and fsynced before acknowledgement, and Recover
	// replays the log on startup. Created if missing.
	WALDir string
	// WALCheckpointBytes triggers a checkpoint (snapshot tables, prune the
	// log) once the WAL exceeds this size. 0 means the default of 64 MiB;
	// negative disables automatic checkpoints (Drain still checkpoints).
	WALCheckpointBytes int64
	// MaxInflightBuilds bounds concurrently admitted session builds; excess
	// POST /v1/sessions requests get 429 + Retry-After. 0 means the default
	// of 2×GOMAXPROCS (min 4); negative means unlimited.
	MaxInflightBuilds int
	// RequestTimeout bounds each request's handler; queries observe the
	// deadline between morsels and the response is 503. 0 disables.
	RequestTimeout time.Duration
	// TraceEnabled turns on request tracing for every request. Off, traces
	// still start for ?trace=1 requests and — when SlowQuery is set — to
	// detect slow ones; everything else runs the nil-span zero-cost path.
	TraceEnabled bool
	// TraceRing caps the recent- and slow-trace rings at /debug/traces.
	// 0 means obs.DefaultRingSize.
	TraceRing int
	// SlowQuery, when positive, retains traces of requests at or above this
	// duration in the slow ring and logs them through the structured logger.
	SlowQuery time.Duration
	// Logger receives the server's structured logs (panics, checkpoint
	// failures, slow traces). nil means slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	switch {
	case c.MaxCacheBytes == 0:
		c.MaxCacheBytes = 256 << 20
	case c.MaxCacheBytes < 0:
		c.MaxCacheBytes = 0 // lruCache treats 0 as unlimited
	}
	switch {
	case c.WALCheckpointBytes == 0:
		c.WALCheckpointBytes = 64 << 20
	case c.WALCheckpointBytes < 0:
		c.WALCheckpointBytes = 0 // durability treats 0 as "never auto-checkpoint"
	}
	switch {
	case c.MaxInflightBuilds == 0:
		c.MaxInflightBuilds = 2 * runtime.GOMAXPROCS(0)
		if c.MaxInflightBuilds < 4 {
			c.MaxInflightBuilds = 4
		}
	case c.MaxInflightBuilds < 0:
		c.MaxInflightBuilds = 0 // 0 after defaults means unlimited
	}
	return c
}

// db is the server's catalog: a qagview.DB plus a per-table data
// generation, bumped on every load or row append, that drives session
// staleness. Writers never mutate either in place: under the write lock they
// install fresh copies. So the pair a reader takes under the read lock is an
// immutable snapshot, and queries execute on it after the lock is released —
// an append never waits for a running query, and a query never sees half of
// a write.
type db struct {
	mu   sync.RWMutex
	cat  *qagview.DB
	gens map[string]uint64
	// execOpts are applied to every query run through this catalog (session
	// builds, session refreshes, and ad-hoc /v1/queries alike), so an
	// ExecParallelism setting covers all execution paths uniformly.
	execOpts []qagview.QueryOption
	// afterSnapshot, when set, runs after every snapshot is taken, outside
	// the lock. Tests use it to install a generation between a snapshot
	// and the work done on it.
	afterSnapshot func()
}

func newServerDB(execOpts ...qagview.QueryOption) *db {
	return &db{cat: qagview.NewDB(), gens: make(map[string]uint64), execOpts: execOpts}
}

// snapshot returns the current catalog and generations; both are immutable.
func (d *db) snapshot() (*qagview.DB, map[string]uint64) {
	d.mu.RLock()
	cat, gens := d.cat, d.gens
	d.mu.RUnlock()
	if d.afterSnapshot != nil {
		d.afterSnapshot()
	}
	return cat, gens
}

// installLocked publishes r in a copy of the catalog and returns its data
// generation: the table's next one when gen is 0, otherwise gen (recovery
// replay, which restores the generation a record was acknowledged with).
// Generations never move backwards. The caller holds the write lock.
func (d *db) installLocked(r *qagview.Relation, gen uint64) (uint64, error) {
	cat := qagview.NewDB()
	for _, name := range d.cat.Tables() {
		t, _ := d.cat.Table(name)
		_ = cat.Register(t)
	}
	if err := cat.Register(r); err != nil {
		return 0, err
	}
	gens := maps.Clone(d.gens)
	if gen == 0 {
		gen = gens[r.Name()] + 1
	}
	if gen > gens[r.Name()] {
		gens[r.Name()] = gen
	}
	d.cat, d.gens = cat, gens
	return gens[r.Name()], nil
}

// register installs a relation, replacing any table of the same name, and
// bumps its data generation. stage behaves as in write.
func (d *db) register(r *qagview.Relation, stage func(gen uint64) func() error) (uint64, error) {
	if r == nil {
		return 0, fmt.Errorf("nil relation")
	}
	return d.write(r.Name(), func(*qagview.DB) (*qagview.Relation, error) { return r, nil }, stage)
}

// restore installs a relation at an explicit data generation — recovery
// replay, where the generation must match what the record was acknowledged
// with, not a fresh increment.
func (d *db) restore(r *qagview.Relation, gen uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.installLocked(r, gen)
	return err
}

// update replaces the named table with fn's result and returns the new data
// generation. fn runs under the catalog write lock, so it must be cheap: a
// row append (Relation.Append) costs O(batch), and since queries hold the
// lock only to take a snapshot, neither waits for the other's work. A nil
// result from fn is a no-op: the table and its generation stay untouched (an
// empty append must not mark every session over the table stale). stage
// behaves as in write.
func (d *db) update(name string, fn func(*qagview.Relation) (*qagview.Relation, error), stage func(gen uint64) func() error) (uint64, error) {
	return d.write(name, func(cat *qagview.DB) (*qagview.Relation, error) {
		rel, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		return fn(rel)
	}, stage)
}

// write installs next's result, computed from the current catalog under the
// write lock, at the table's next data generation. A non-nil stage hook is
// write-ahead logging: it must see generations in assignment order, so it
// runs under the lock right after the generation is assigned, and it returns
// a wait that runs after the lock drops. The write only counts as durable
// once that wait returns nil; the returned generation is valid either way
// (the data is applied in memory).
func (d *db) write(name string, next func(*qagview.DB) (*qagview.Relation, error), stage func(gen uint64) func() error) (uint64, error) {
	d.mu.Lock()
	r, err := next(d.cat)
	g := d.gens[name]
	var wait func() error
	if err == nil && r != nil {
		g, err = d.installLocked(r, 0)
		if err == nil && stage != nil {
			wait = stage(g)
		}
	}
	d.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if wait != nil {
		if err := wait(); err != nil {
			return g, fmt.Errorf("%w: %v", errDurability, err)
		}
	}
	return g, nil
}

// table returns the named relation.
func (d *db) table(name string) (*qagview.Relation, error) {
	cat, _ := d.snapshot()
	return cat.Table(name)
}

// tableWithGen returns a relation together with its data generation, from
// one snapshot, so a checkpoint never pairs a table with a stale generation.
func (d *db) tableWithGen(name string) (*qagview.Relation, uint64, error) {
	cat, gens := d.snapshot()
	rel, err := cat.Table(name)
	if err != nil {
		return nil, 0, err
	}
	return rel, gens[name], nil
}

// execOptions returns the catalog's query options, extended with ctx when
// one is supplied. The base slice is never appended to in place — handlers
// run concurrently and share it.
func (d *db) execOptions(ctx context.Context) []qagview.QueryOption {
	if ctx == nil {
		return d.execOpts
	}
	opts := make([]qagview.QueryOption, 0, len(d.execOpts)+1)
	opts = append(opts, d.execOpts...)
	return append(opts, qagview.ExecContext(ctx))
}

// query runs sql on a catalog snapshot, outside the lock.
func (d *db) query(ctx context.Context, sql string, extra ...qagview.QueryOption) (*qagview.Result, error) {
	res, _, err := d.queryVersioned(ctx, sql, extra...)
	return res, err
}

// queryVersioned runs sql on a catalog snapshot and reports the summed
// generation of every FROM table in that snapshot. Tables and generations
// come from the same snapshot, so the version labels exactly the data the
// query read, and the query runs after the lock is released.
func (d *db) queryVersioned(ctx context.Context, sql string, extra ...qagview.QueryOption) (*qagview.Result, uint64, error) {
	cat, gens := d.snapshot()
	opts := d.execOptions(ctx)
	if len(extra) > 0 {
		// Full-slice append: execOptions may return the shared base slice.
		opts = append(opts[:len(opts):len(opts)], extra...)
	}
	res, err := cat.Query(sql, opts...)
	if err != nil {
		return nil, 0, err
	}
	return res, genSum(gens, res.Tables), nil
}

// generation returns the table's current data generation (0 for unknown
// tables).
func (d *db) generation(table string) uint64 {
	_, gens := d.snapshot()
	return gens[table]
}

// generationSum sums the data generations of the given tables. Each
// per-table generation only ever increments, so the sum is a monotonic
// staleness clock for a session reading all of them: any append to any
// joined table moves it forward.
func (d *db) generationSum(tables []string) uint64 {
	_, gens := d.snapshot()
	return genSum(gens, tables)
}

func genSum(gens map[string]uint64, tables []string) uint64 {
	var sum uint64
	for _, t := range tables {
		sum += gens[t]
	}
	return sum
}

func (d *db) tables() []string {
	cat, _ := d.snapshot()
	return cat.Tables()
}

// Server is the qagviewd HTTP service.
type Server struct {
	cfg      Config
	db       *db
	sessions *sessionManager
	metrics  *metrics
	tracer   *obs.Tracer
	logger   *slog.Logger
	mux      *http.ServeMux
	dur      *durability // nil when Config.WALDir is empty
	// buildSlots is the session-build admission semaphore (nil = unlimited).
	buildSlots chan struct{}
	draining   atomic.Bool
}

// New returns a server with an empty catalog. With Config.WALDir set, call
// Recover after preloading samples and before serving.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	var execOpts []qagview.QueryOption
	if cfg.ExecParallelism > 0 {
		execOpts = append(execOpts, qagview.ExecParallelism(cfg.ExecParallelism))
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		cfg:      cfg,
		db:       newServerDB(execOpts...),
		sessions: newSessionManager(cfg.MaxSessions, cfg.MaxCacheBytes, cfg.SnapshotDir),
		metrics:  newMetrics(),
		tracer:   obs.NewTracer(cfg.TraceRing, logger),
		logger:   logger,
	}
	s.tracer.SetEnabled(cfg.TraceEnabled)
	s.tracer.SetSlowThreshold(cfg.SlowQuery)
	// Background store builds start their own traces (no request to attach
	// to); the manager needs the tracer for that.
	s.sessions.tracer = s.tracer
	if cfg.WALDir != "" {
		s.dur = newDurability(cfg.WALDir, cfg.WALCheckpointBytes)
	}
	if cfg.MaxInflightBuilds > 0 {
		s.buildSlots = make(chan struct{}, cfg.MaxInflightBuilds)
	}
	s.mux = http.NewServeMux()
	// Middleware order, outermost first: instrument (counts every response,
	// including 429/500/503 from inner layers) → panic recovery → deadline.
	// Write endpoints additionally refuse while draining; session creation
	// passes admission control.
	route := func(pattern, label string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(label, s.recoverPanics(s.withDeadline(h))))
	}
	route("POST /v1/tables", "POST /v1/tables", s.gateWrites(s.handleCreateTable))
	route("GET /v1/tables", "GET /v1/tables", s.handleListTables)
	route("POST /v1/tables/{id}/rows", "POST /v1/tables/{id}/rows", s.gateWrites(s.handleAppendRows))
	route("POST /v1/queries", "POST /v1/queries", s.handleQuery)
	route("POST /v1/sessions", "POST /v1/sessions", s.gateWrites(s.admitBuild(s.handleCreateSession)))
	route("GET /v1/sessions/{id}", "GET /v1/sessions/{id}", s.handleSessionInfo)
	route("DELETE /v1/sessions/{id}", "DELETE /v1/sessions/{id}", s.handleDeleteSession)
	route("GET /v1/sessions/{id}/solution", "GET /v1/sessions/{id}/solution", s.handleSolution)
	route("GET /v1/sessions/{id}/guidance", "GET /v1/sessions/{id}/guidance", s.handleGuidance)
	route("GET /v1/sessions/{id}/diff", "GET /v1/sessions/{id}/diff", s.handleDiff)
	// Ops endpoints skip the metrics middleware (scrapes should not dominate
	// the request counters) but still get a request id on every response.
	s.mux.HandleFunc("GET /healthz", s.stampRequestID(s.recoverPanics(s.handleHealthz)))
	s.mux.HandleFunc("GET /metrics", s.stampRequestID(s.recoverPanics(s.handleMetrics)))
	s.mux.HandleFunc("GET /debug/traces", s.stampRequestID(s.recoverPanics(s.handleTraces)))
	s.mux.HandleFunc("GET /debug/traces/{id}", s.stampRequestID(s.recoverPanics(s.handleTrace)))
	return s
}

// stampRequestID wraps ops endpoints outside the instrument middleware so
// every response still carries X-Request-Id (and error bodies a request_id).
func (s *Server) stampRequestID(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := obs.NewRequestID()
		w.Header().Set("X-Request-Id", rid)
		h(&statusWriter{ResponseWriter: w, code: http.StatusOK, rid: rid}, r)
	}
}

// Handler returns the HTTP surface, ready to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Register preloads a relation into the catalog (sample datasets; tests).
// Preloads are not write-ahead logged: samples are regenerated
// deterministically at boot, and WAL appends replay on top of them.
func (s *Server) Register(r *qagview.Relation) error {
	_, err := s.db.register(r, nil)
	return err
}

// Close cancels all background session work and waits for it to stop.
// In-flight requests finish. For a durable server prefer Drain, which also
// flushes and checkpoints the WAL.
func (s *Server) Close() { s.sessions.close() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	uptime, _ := s.metrics.snapshot()
	ws, _, durable := s.walStats()
	walStatus := "disabled"
	if durable {
		switch {
		case ws.Broken:
			walStatus = "broken"
		default:
			walStatus = "ok"
		}
	}
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"uptime_seconds": uptime.Seconds(),
		"wal":            walStatus,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		s.promMetrics(w)
		return
	}
	uptime, routes := s.metrics.snapshot()
	entries, bytes, stats := s.sessions.occupancy()
	robust := s.metrics.robustness()
	body := map[string]any{
		"uptime_seconds": uptime.Seconds(),
		"requests":       routes,
		"sessions": map[string]any{
			"live":        entries,
			"bytes":       bytes,
			"max_entries": s.cfg.MaxSessions,
			"max_bytes":   s.cfg.MaxCacheBytes,
			"events":      stats,
		},
		"panics_recovered":  robust.PanicsRecovered,
		"admission_rejects": robust.AdmissionRejects,
		"inflight_builds":   len(s.buildSlots),
		"draining":          s.draining.Load(),
	}
	if ws, ds, durable := s.walStats(); durable {
		body["wal"] = ws
		body["recovery"] = ds
	}
	writeJSON(w, http.StatusOK, body)
}

// promMetrics renders the /metrics counters in the Prometheus text
// exposition format (version 0.0.4): the same numbers the JSON report
// carries, plus runtime gauges. JSON stays the default; this is the
// ?format=prometheus branch scrape configs point at.
func (s *Server) promMetrics(w http.ResponseWriter) {
	uptime, routes := s.metrics.snapshot()
	entries, bytes, stats := s.sessions.occupancy()
	robust := s.metrics.robustness()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ring := s.tracer.Stats()

	var pw obs.PromWriter
	pw.Family("qagviewd_uptime_seconds", "gauge", "Seconds since the server started.")
	pw.Sample("qagviewd_uptime_seconds", uptime.Seconds())
	pw.Family("qagviewd_requests_total", "counter", "Requests served, by route and status code.")
	pw.Family("qagviewd_request_latency_ms", "gauge", "Request latency quantiles over the recent-sample ring, by route.")
	for route, rs := range routes {
		for code, n := range rs.ByCode {
			pw.Sample("qagviewd_requests_total", float64(n), "route", route, "code", code)
		}
		pw.Sample("qagviewd_request_latency_ms", rs.P50Ms, "route", route, "quantile", "0.5")
		pw.Sample("qagviewd_request_latency_ms", rs.P99Ms, "route", route, "quantile", "0.99")
	}
	pw.Family("qagviewd_sessions_live", "gauge", "Live sessions in the LRU cache.")
	pw.Sample("qagviewd_sessions_live", float64(entries))
	pw.Family("qagviewd_sessions_bytes", "gauge", "Approximate bytes held by live sessions.")
	pw.Sample("qagviewd_sessions_bytes", float64(bytes))
	pw.Family("qagviewd_session_events_total", "counter", "Session-manager lifecycle events.")
	for _, ev := range []struct {
		name string
		n    int64
	}{
		{"builds", stats.Builds}, {"build_errors", stats.BuildErrors},
		{"deduped", stats.Deduped}, {"evictions", stats.Evictions},
		{"deletes", stats.Deletes}, {"refreshes", stats.Refreshes},
		{"refresh_noops", stats.RefreshNoops}, {"refresh_errors", stats.RefreshErrors},
		{"snapshot_loads", stats.SnapshotLoads}, {"snapshot_saves", stats.SnapshotSaves},
	} {
		pw.Sample("qagviewd_session_events_total", float64(ev.n), "event", ev.name)
	}
	pw.Family("qagviewd_panics_recovered_total", "counter", "Handler panics converted to 500s.")
	pw.Sample("qagviewd_panics_recovered_total", float64(robust.PanicsRecovered))
	pw.Family("qagviewd_admission_rejects_total", "counter", "Session builds refused with 429.")
	pw.Sample("qagviewd_admission_rejects_total", float64(robust.AdmissionRejects))
	pw.Family("qagviewd_inflight_builds", "gauge", "Session builds currently admitted.")
	pw.Sample("qagviewd_inflight_builds", float64(len(s.buildSlots)))
	pw.Family("qagviewd_draining", "gauge", "1 while the server refuses writes for drain.")
	pw.Sample("qagviewd_draining", boolGauge(s.draining.Load()))

	pw.Family("qagviewd_goroutines", "gauge", "Goroutines in the process.")
	pw.Sample("qagviewd_goroutines", float64(runtime.NumGoroutine()))
	pw.Family("qagviewd_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
	pw.Sample("qagviewd_heap_alloc_bytes", float64(ms.HeapAlloc))

	pw.Family("qagviewd_tracing_enabled", "gauge", "1 when the global tracing gate is on.")
	pw.Sample("qagviewd_tracing_enabled", boolGauge(ring.Enabled))
	pw.Family("qagviewd_trace_ring_occupancy", "gauge", "Retained traces, by ring.")
	pw.Sample("qagviewd_trace_ring_occupancy", float64(ring.Recent), "ring", "recent")
	pw.Sample("qagviewd_trace_ring_occupancy", float64(ring.Slow), "ring", "slow")
	pw.Family("qagviewd_traces_total", "counter", "Traces finished, by kind.")
	pw.Sample("qagviewd_traces_total", float64(ring.Total), "kind", "all")
	pw.Sample("qagviewd_traces_total", float64(ring.SlowTotal), "kind", "slow")

	if ws, ds, durable := s.walStats(); durable {
		pw.Family("qagviewd_wal_appends_total", "counter", "Acknowledged WAL appends.")
		pw.Sample("qagviewd_wal_appends_total", float64(ws.Appends))
		pw.Family("qagviewd_wal_fsyncs_total", "counter", "WAL fsync batches (group commit).")
		pw.Sample("qagviewd_wal_fsyncs_total", float64(ws.Fsyncs))
		pw.Family("qagviewd_wal_bytes_total", "counter", "Bytes appended to the WAL this process.")
		pw.Sample("qagviewd_wal_bytes_total", float64(ws.Bytes))
		pw.Family("qagviewd_wal_size_bytes", "gauge", "On-disk bytes across live WAL segments.")
		pw.Sample("qagviewd_wal_size_bytes", float64(ws.SizeBytes))
		pw.Family("qagviewd_wal_fsync_ms", "gauge", "WAL fsync latency quantiles over the recent-sample ring.")
		pw.Sample("qagviewd_wal_fsync_ms", ws.FsyncP50Ms, "quantile", "0.5")
		pw.Sample("qagviewd_wal_fsync_ms", ws.FsyncP99Ms, "quantile", "0.99")
		pw.Family("qagviewd_wal_broken", "gauge", "1 after the WAL went fail-stop.")
		pw.Sample("qagviewd_wal_broken", boolGauge(ws.Broken))
		pw.Family("qagviewd_recovery_records_replayed_total", "counter", "WAL records replayed by Recover.")
		pw.Sample("qagviewd_recovery_records_replayed_total", float64(ds.RecordsReplayed))
		pw.Family("qagviewd_checkpoints_total", "counter", "Completed WAL checkpoints.")
		pw.Sample("qagviewd_checkpoints_total", float64(ds.Checkpoints))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(pw.String()))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleTraces serves the retained-trace index: ring stats plus summaries,
// newest first (slow traces that outlived the recent ring included).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.tracer.Recent()
	if traces == nil {
		traces = []obs.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ring":   s.tracer.Stats(),
		"traces": traces,
	})
}

// handleTrace serves one retained trace's full span tree by id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.tracer.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "trace %q not retained (expired from the ring, or never existed)", id)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// DebugHandler returns the debug surface — pprof plus the trace ring — for
// a separate listener (qagviewd -debug-addr), so profiling endpoints are
// never exposed on the service port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", s.stampRequestID(s.recoverPanics(s.handleTraces)))
	mux.HandleFunc("GET /debug/traces/{id}", s.stampRequestID(s.recoverPanics(s.handleTrace)))
	return mux
}

// String renders the bind hint for logs.
func (s *Server) String() string {
	return fmt.Sprintf("qagviewd{sessions<=%d, bytes<=%d}", s.cfg.MaxSessions, s.cfg.MaxCacheBytes)
}

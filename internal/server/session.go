package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qagview"
	"qagview/internal/engine"
	"qagview/internal/obs"
)

// session is one live exploration context: a (query, L, grid) spine plus a
// chain of per-generation views. The spine fields are immutable; the current
// view is published through an atomic pointer, so reads never lock, and
// refreshes (live tables changed under the session) swap in a successor view
// built by the incremental-maintenance subsystem.
type session struct {
	ID         string
	SQL        string
	Table      string   // first FROM relation, kept for display
	Tables     []string // every FROM relation; their summed generation drives staleness
	L          int
	KMin, KMax int
	Ds         []int

	// live owns the delta-maintained index and warm sweeper chain. It is
	// single-writer: only the refresh critical section (refreshMu, entered
	// through the manager's singleflight) and the one in-flight store build
	// between a view's creation and its ready-close may touch it.
	live      *qagview.Live
	refreshMu sync.Mutex
	dead      atomic.Bool

	// fold is the query's retained aggregation over the generation the
	// live state reflects, seeded by the first refresh (nil before it, and
	// for queries the engine does not fold). Only the refresh critical
	// section touches it; foldBytes publishes its size to cache accounting.
	fold      *engine.Retained
	foldBytes atomic.Int64

	view atomic.Pointer[sessionView]

	created time.Time
}

// sessionView is one data generation's immutable serving state: the
// summarizer snapshot, the data version it reflects, and the store build it
// serves from. Views whose data is byte-identical (a no-op refresh: an
// append the query filters out) share one storeBuild, so the sweep —
// finished or still running — carries across version bumps untouched.
type sessionView struct {
	sum         *qagview.Summarizer
	dataVersion uint64
	dataFP      string
	build       *storeBuild
}

// storeBuild is one background (k, D) sweep. Result fields are written
// exactly once, before ready closes; readers that find ready open fall back
// to live summarization, so no read ever blocks on a build.
type storeBuild struct {
	ready        chan struct{}
	store        *qagview.Store
	buildErr     error
	fromSnapshot bool

	cancel context.CancelFunc
}

func newStoreBuild(cancel context.CancelFunc) *storeBuild {
	return &storeBuild{ready: make(chan struct{}), cancel: cancel}
}

// storeIfReady returns the precomputed store without blocking: (nil, nil,
// false) while the background build is still running.
func (v *sessionView) storeIfReady() (*qagview.Store, error, bool) {
	select {
	case <-v.build.ready:
		return v.build.store, v.build.buildErr, true
	default:
		return nil, nil, false
	}
}

// currentView returns the session's live view.
func (s *session) currentView() *sessionView { return s.view.Load() }

// shutdown cancels the session's background work (eviction, explicit
// delete). A refresh racing shutdown re-checks dead after swapping and
// cancels its own view, so no build outlives the session.
func (s *session) shutdown() {
	s.dead.Store(true)
	if v := s.view.Load(); v != nil {
		v.build.cancel()
	}
}

// sessionKey derives the dedupe key of a session request: identical
// (query, L, grid) tuples map to the same session.
func sessionKey(sql string, l, kMin, kMax int, ds []int) string {
	sorted := append([]int(nil), ds...)
	sort.Ints(sorted)
	var sb strings.Builder
	sb.WriteString(sql)
	fmt.Fprintf(&sb, "|L=%d|k=[%d,%d]|ds=", l, kMin, kMax)
	for _, d := range sorted {
		sb.WriteString(strconv.Itoa(d))
		sb.WriteByte(',')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// resultFingerprint hashes the ranked answer set (attributes, rows, exact
// value bits) a session view is built from.
func resultFingerprint(res *qagview.Result) string {
	h := sha256.New()
	for _, a := range res.GroupBy {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	for i, row := range res.Rows {
		for _, cell := range row {
			h.Write([]byte(cell))
			h.Write([]byte{0})
		}
		var bits [8]byte
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(res.Vals[i]))
		h.Write(bits[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// managerStats counts session-manager events for /metrics.
type managerStats struct {
	Builds        int64 `json:"builds"`
	BuildErrors   int64 `json:"build_errors"`
	Deduped       int64 `json:"deduped"`
	Evictions     int64 `json:"evictions"`
	Deletes       int64 `json:"deletes"`
	Refreshes     int64 `json:"refreshes"`
	RefreshNoops  int64 `json:"refresh_noops"`
	RefreshErrors int64 `json:"refresh_errors"`
	SnapshotLoads int64 `json:"snapshot_loads"`
	SnapshotSaves int64 `json:"snapshot_saves"`
}

// sessionManager owns the LRU of live sessions. Summarizer construction and
// session refreshes are deduplicated through a singleflight group; precompute
// stores build in one background goroutine per view, cancelled on eviction or
// supersession via the context threaded into Precompute.
type sessionManager struct {
	mu    sync.Mutex
	cache *lruCache // session id -> *session
	stats managerStats

	flight      flightGroup
	snapshotDir string

	// tracer roots background-build traces (builds have no request trace to
	// attach to). Set by Server.New; nil in bare-manager tests, where every
	// obs call is a nil-safe no-op.
	tracer *obs.Tracer

	// wg tracks background store-build goroutines so close can wait for
	// them after cancelling: graceful shutdown must not exit while a sweep
	// still touches a Live maintainer.
	wg sync.WaitGroup

	// removing marks an explicit DELETE in progress (under mu), so the
	// eviction hook can tell cache-pressure evictions from user deletes and
	// keep the evictions gauge meaningful for LRU sizing.
	removing bool
}

func newSessionManager(maxSessions int, maxBytes int64, snapshotDir string) *sessionManager {
	m := &sessionManager{snapshotDir: snapshotDir}
	m.cache = newLRUCache(maxSessions, maxBytes, func(_ string, v any) {
		// Runs under m.mu (all cache mutations do). Cancelling an in-flight
		// build makes Precompute return ctx.Err() at its next per-D check.
		if !m.removing {
			m.stats.Evictions++
		}
		v.(*session).shutdown()
	})
	return m
}

// get returns the live session with the given id, refreshing its LRU slot.
func (m *sessionManager) get(id string) (*session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.cache.Get(id)
	if !ok {
		return nil, false
	}
	return v.(*session), true
}

// remove drops the session (explicit DELETE), cancelling its background
// work through the eviction hook.
func (m *sessionManager) remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cache.Get(id); !ok {
		return false
	}
	m.stats.Deletes++
	m.removing = true
	m.cache.Remove(id)
	m.removing = false
	return true
}

// open returns the live session for (sql, L, grid), building it if needed.
// Concurrent identical requests share one build; reused reports whether the
// caller got a session someone else created (live cache hit or singleflight
// duplicate).
func (m *sessionManager) open(ctx context.Context, db *db, sql string, l, kMin, kMax int, ds []int) (sess *session, reused bool, err error) {
	key := sessionKey(sql, l, kMin, kMax, ds)
	id := "s-" + key[:16]
	if s, ok := m.get(id); ok {
		return s, true, nil
	}
	v, err, shared := m.flight.Do(key, func() (any, error) {
		// A duplicate that lost the fast-path race may still find the
		// session built by the previous flight owner.
		if s, ok := m.get(id); ok {
			return s, nil
		}
		return m.build(ctx, db, id, sql, l, kMin, kMax, ds)
	})
	if err != nil {
		return nil, false, err
	}
	if shared {
		m.mu.Lock()
		m.stats.Deduped++
		m.mu.Unlock()
	}
	return v.(*session), shared, nil
}

// build runs the expensive synchronous part of session creation (query +
// cluster-space construction), registers the session, and kicks off the
// background store build. Callers hold the singleflight slot for key, so at
// most one build per key runs at a time.
// The ctx bounds only the synchronous query (the caller's request deadline;
// duplicate singleflight callers share the first caller's fate); the
// background sweep runs under its own cancel-on-eviction context.
func (m *sessionManager) build(ctx context.Context, db *db, id, sql string, l, kMin, kMax int, ds []int) (*session, error) {
	// The query and the generation come from one catalog snapshot, so the
	// view is labeled with exactly the data it read; an append after the
	// snapshot makes the first read refresh.
	res, gen, err := db.queryVersioned(ctx, sql)
	if err != nil {
		return nil, err
	}
	if res.N() == 0 {
		return nil, fmt.Errorf("query returned no groups")
	}
	if l > res.N() {
		return nil, fmt.Errorf("l = %d exceeds the %d result groups", l, res.N())
	}
	_, lsp := obs.StartSpan(ctx, "lattice.build")
	sum, err := qagview.NewSummarizer(res, l)
	if err != nil {
		lsp.End()
		return nil, err
	}
	lsp.SetInt("clusters", int64(sum.NumClusters()))
	lsp.SetInt("tuples", int64(res.N()))
	lsp.End()
	// Validate the (k, D) grid now, while the client is still listening:
	// these would otherwise surface only as a background build error.
	seen := make(map[int]bool, len(ds))
	for _, d := range ds {
		if d < 0 || d > sum.M() {
			return nil, fmt.Errorf("d = %d out of range [0, %d]", d, sum.M())
		}
		if seen[d] {
			return nil, fmt.Errorf("duplicate D = %d", d)
		}
		seen[d] = true
	}
	buildCtx, cancel := context.WithCancel(context.Background())
	s := &session{
		ID: id, SQL: sql, Table: res.Table,
		Tables: append([]string(nil), res.Tables...),
		L:      l, KMin: kMin, KMax: kMax,
		Ds:      append([]int(nil), ds...),
		live:    qagview.NewLive(sum),
		created: time.Now(),
	}
	sort.Ints(s.Ds)
	_, fsp := obs.StartSpan(ctx, "session.fingerprint")
	fp := resultFingerprint(res)
	fsp.End()
	v := &sessionView{
		sum:         sum,
		dataVersion: gen,
		dataFP:      fp,
		build:       newStoreBuild(cancel),
	}
	s.view.Store(v)
	m.mu.Lock()
	m.stats.Builds++
	m.cache.Add(id, s, sum.ApproxBytes())
	m.mu.Unlock()
	m.wg.Add(1)
	go m.buildStore(buildCtx, s, v, nil)
	return s, nil
}

// freshen returns the session's current view, first reconciling it with the
// table's data generation: the first read of a stale session folds the
// appended rows into the session's retained aggregation (or re-runs the
// query where it cannot), applies the answer-set delta through the
// incremental maintenance subsystem, supersedes any in-flight sweep (cancel
// + wait), and kicks off the successor store build. Concurrent stale reads
// share one refresh through the singleflight group.
func (m *sessionManager) freshen(ctx context.Context, db *db, s *session) (*sessionView, error) {
	cur := s.currentView()
	if s.dead.Load() || cur.dataVersion >= db.generationSum(s.Tables) {
		return cur, nil
	}
	v, err, _ := m.flight.Do("refresh|"+s.ID, func() (any, error) {
		s.refreshMu.Lock()
		defer s.refreshMu.Unlock()
		cur := s.currentView()
		// The data and its version label come from one catalog snapshot, so
		// the view is labeled with exactly the data it reflects; an append
		// after the snapshot makes the next read refresh again.
		cat, gens := db.snapshot()
		want := genSum(gens, s.Tables)
		if s.dead.Load() || cur.dataVersion >= want {
			return cur, nil // raced with another refresh or a delete
		}
		// Refreshes run uncancelled: the result is shared by every concurrent
		// stale reader through the singleflight group, so one caller's
		// deadline must not fail the others' reads. WithoutCancel keeps the
		// flight owner's trace span (a context value) while dropping its
		// deadline — losers' reads were never traced into this refresh.
		rctx, rsp := obs.StartSpan(context.WithoutCancel(ctx), "session.refresh")
		defer rsp.End()
		rsp.SetAttr("session", s.ID)
		nv, path, err := m.refresh(rctx, ctx.Done(), rsp, db.execOptions(rctx), cat, s, cur, want)
		if err != nil {
			// The retained aggregation may have moved past the live state.
			s.fold = nil
			s.foldBytes.Store(0)
			m.countRefresh(&m.stats.RefreshErrors)
			return nil, err
		}
		rsp.SetAttr("path", path)
		return nv, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*sessionView), nil
}

// refresh reconciles the session with catalog snapshot cat, whose summed
// generation is want, publishes the successor view, and reports the path it
// took: "fold", "rescan", or "noop" when the answer set did not change. It
// folds the appended rows into the retained aggregation when it can: the
// fold compares group ids and value bits with its previous output, so an
// unchanged answer set needs no query and no fingerprint. Otherwise (the
// first refresh, a replaced table, a dictionary outgrowing its key field, a
// join) it re-runs the query, re-seeding the retained aggregation where the
// query folds, and compares fingerprints. Either way a changed result goes
// to the live state's rebase. The successor store build starts once
// answered is closed (see buildStore).
func (m *sessionManager) refresh(ctx context.Context, answered <-chan struct{}, sp *obs.Span, opts []qagview.QueryOption, cat *qagview.DB, s *session, cur *sessionView, want uint64) (*sessionView, string, error) {
	var f *engine.Folded
	if s.fold != nil {
		var ok bool
		var err error
		if f, ok, err = s.fold.Fold(cat, opts...); err != nil {
			return nil, "", fmt.Errorf("refresh fold: %w", err)
		}
		if !ok {
			f, s.fold = nil, nil
		}
	}
	// An unchanged answer set keeps the current store build — finished or
	// still sweeping — under the new version label, cancelling nothing.
	same := &sessionView{sum: cur.sum, dataVersion: want, dataFP: cur.dataFP, build: cur.build}
	var res *qagview.Result
	path, fp := "fold", ""
	if f != nil {
		sp.SetInt("rows_folded", int64(f.Rows))
		if !f.Changed {
			return m.publish(s, same, false), "noop", nil
		}
		res = f.Result
		if m.snapshotDir != "" {
			fp = resultFingerprint(res) // names the view's snapshot file
		}
	} else {
		q, err := engine.Parse(s.SQL)
		if err == nil {
			res, s.fold, err = engine.Retain(cat, q, opts...)
		}
		if err != nil {
			return nil, "", fmt.Errorf("refresh query: %w", err)
		}
		path, fp = "rescan", resultFingerprint(res)
		if fp == cur.dataFP {
			// Byte-identical (e.g. the append fell below the HAVING
			// threshold).
			return m.publish(s, same, false), "noop", nil
		}
	}
	if res.N() < s.L {
		return nil, "", fmt.Errorf("refreshed result has %d groups, below the session's l = %d", res.N(), s.L)
	}
	// Supersede the current generation's sweep: cancel it and wait for
	// the build goroutine to let go of the maintainer (Live is
	// single-writer; ready closes when the build returns).
	cur.build.cancel()
	//qag:allow lockscope deliberate: refreshMu serializes refreshes per session, and the superseded build was just cancelled, so ready closes promptly; waiting here is what guarantees Live's single-writer contract
	<-cur.build.ready
	_, changed, err := s.live.RefreshCtx(ctx, res)
	if err != nil {
		return nil, "", fmt.Errorf("refresh: %w", err)
	}
	if !changed {
		// A rescan after folds had no fingerprint of the current view to
		// compare (folds compute none), so only the rebase found the answer
		// set unchanged, after the sweep was superseded: keep its store if
		// it had finished, sweep again otherwise.
		path, same.dataFP = "noop", fp
		if cur.build.store != nil {
			return m.publish(s, same, false), path, nil
		}
	}
	bctx, cancel := context.WithCancel(context.Background())
	nv := &sessionView{sum: s.live.Summarizer(), dataVersion: want, dataFP: fp, build: newStoreBuild(cancel)}
	m.publish(s, nv, changed)
	if s.dead.Load() {
		cancel() // lost a race with eviction; don't leak the build
	}
	m.wg.Add(1)
	go m.buildStore(bctx, s, nv, answered)
	return nv, path, nil
}

// publish installs nv as the session's view, counts it as a refresh or a
// no-op, and re-accounts the session's cache cost, retained aggregation
// included.
func (m *sessionManager) publish(s *session, nv *sessionView, changed bool) *sessionView {
	s.foldBytes.Store(foldBytes(s.fold))
	s.view.Store(nv)
	cost := nv.sum.ApproxBytes() + s.foldBytes.Load()
	if st, err, ok := nv.storeIfReady(); ok && err == nil && st != nil {
		cost += st.SizeBytes()
	}
	m.mu.Lock()
	if changed {
		m.stats.Refreshes++
	} else {
		m.stats.RefreshNoops++
	}
	m.cache.Resize(s.ID, cost)
	m.mu.Unlock()
	return nv
}

// foldBytes is a retained aggregation's cache cost (0 for none).
func foldBytes(r *engine.Retained) int64 {
	if r == nil {
		return 0
	}
	return r.ApproxBytes()
}

func (m *sessionManager) countRefresh(counter *int64) {
	m.mu.Lock()
	*counter++
	m.mu.Unlock()
}

// buildStore materializes a view's precompute store in the background: from
// a snapshot when one exists for this session key and data fingerprint (warm
// restart, no sweep), otherwise by running the cancellable sweep — through
// the warm sweeper chain, so a refreshed session reuses the previous
// generation's replay state — and snapshotting the result for the next
// restart.
//
// A refresh's build first waits for answered, the end of the read that
// triggered the refresh (nil: no wait). That read is still computing its
// answer from the refreshed summarizer; the build's first step, warming the
// sweeper, is as costly as the refresh itself, and running the two at once
// would occupy both cores of a small machine while other requests, such as
// appends, wait for one.
func (m *sessionManager) buildStore(ctx context.Context, s *session, v *sessionView, answered <-chan struct{}) {
	defer m.wg.Done()
	defer close(v.build.ready)
	if answered != nil {
		select {
		case <-answered:
		case <-ctx.Done():
		}
	}
	// Background builds run on a cancel-on-eviction context with no request
	// attached, so they root their own trace (recorded only while the global
	// gate is on; nil otherwise).
	ctx, btr := m.tracer.StartTrace(ctx, "session.build_store", false)
	if btr != nil {
		btr.Root.SetAttr("session", s.ID)
		btr.Root.SetInt("data_version", int64(v.dataVersion))
		defer m.tracer.Finish(btr)
	}
	// A panic here would kill the whole process (background goroutine), so
	// degrade to a build error: the session keeps serving via the live path.
	defer func() {
		if r := recover(); r != nil {
			v.build.buildErr = fmt.Errorf("store build panicked: %v", r)
			m.mu.Lock()
			m.stats.BuildErrors++
			m.mu.Unlock()
		}
	}()
	if st, ok := m.loadSnapshot(s, v); ok {
		v.build.store, v.build.fromSnapshot = st, true
		m.resize(s, v)
		obs.FromContext(ctx).SetInt("clusters_filled", int64(v.sum.ClustersFilled()))
		return
	}
	st, err := s.live.Precompute(s.KMin, s.KMax, s.Ds,
		qagview.WithPrecomputeContext(ctx),
		qagview.WithStoreGeneration(v.dataVersion))
	if err != nil {
		v.build.buildErr = err
		if !errors.Is(err, context.Canceled) {
			// Cancellation is routine eviction/supersession cleanup (already
			// counted), not a failure signal.
			m.mu.Lock()
			m.stats.BuildErrors++
			m.mu.Unlock()
		}
		return
	}
	v.build.store = st
	m.resize(s, v)
	obs.FromContext(ctx).SetInt("clusters_filled", int64(v.sum.ClustersFilled()))
	m.saveSnapshot(s, v, st)
}

// resize re-accounts the session's cache cost once its store exists.
func (m *sessionManager) resize(s *session, v *sessionView) {
	m.mu.Lock()
	m.cache.Resize(s.ID, v.sum.ApproxBytes()+v.build.store.SizeBytes()+s.foldBytes.Load())
	m.mu.Unlock()
}

// snapshotPath names a view's snapshot file: session id, data generation,
// and content fingerprint. Keying by generation keeps every generation's
// sweep on disk (the freshest wins on restart); the fingerprint is what
// load matches on, since generation counters restart with the process.
func (m *sessionManager) snapshotPath(s *session, v *sessionView) string {
	return filepath.Join(m.snapshotDir, fmt.Sprintf("%s-g%d-%s.store", s.ID, v.dataVersion, v.dataFP))
}

// loadSnapshot finds a snapshot whose content fingerprint matches the view's
// data, regardless of which generation number wrote it (a warm restart
// resets generation counters but not table contents).
func (m *sessionManager) loadSnapshot(s *session, v *sessionView) (*qagview.Store, bool) {
	if m.snapshotDir == "" {
		return nil, false
	}
	matches, err := filepath.Glob(filepath.Join(m.snapshotDir, s.ID+"-g*-"+v.dataFP+".store"))
	if err != nil || len(matches) == 0 {
		return nil, false
	}
	// All matches hold identical data (same fingerprint); prefer the highest
	// generation number — parsed, not lexicographic, so g10 beats g9 — for
	// the freshest stamp when GC left more than one behind.
	best := matches[0]
	bestGen := snapshotGen(best, s.ID)
	for _, mpath := range matches[1:] {
		if g := snapshotGen(mpath, s.ID); g > bestGen {
			best, bestGen = mpath, g
		}
	}
	f, err := os.Open(best)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	st, err := v.sum.DecodeStore(f)
	if err != nil {
		// Stale or foreign snapshot (e.g. the table changed under the same
		// query text): fall back to a fresh sweep, which overwrites it.
		return nil, false
	}
	if st.KMin != s.KMin || st.KMax != s.KMax || len(st.Ds) != len(s.Ds) {
		return nil, false
	}
	for i, d := range st.Ds {
		if s.Ds[i] != d {
			return nil, false
		}
	}
	m.mu.Lock()
	m.stats.SnapshotLoads++
	m.mu.Unlock()
	return st, true
}

// snapshotGen extracts the generation number from a snapshot filename
// ({session}-g{gen}-{fingerprint}.store); malformed names rank lowest.
func snapshotGen(path, sessionID string) uint64 {
	base := strings.TrimPrefix(filepath.Base(path), sessionID+"-g")
	digits, _, ok := strings.Cut(base, "-")
	if !ok {
		return 0
	}
	g, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0
	}
	return g
}

func (m *sessionManager) saveSnapshot(s *session, v *sessionView, st *qagview.Store) {
	if m.snapshotDir == "" {
		return
	}
	tmp, err := os.CreateTemp(m.snapshotDir, s.ID+".tmp*")
	if err != nil {
		return
	}
	defer os.Remove(tmp.Name())
	if err := st.Encode(tmp); err != nil {
		tmp.Close()
		return
	}
	if err := tmp.Close(); err != nil {
		return
	}
	target := m.snapshotPath(s, v)
	if err := os.Rename(tmp.Name(), target); err != nil {
		return
	}
	// Garbage-collect superseded generations: without this, a session over a
	// table under routine appends would grow one store file per refresh
	// forever. Open readers on unix keep their fd across the unlink, so a
	// concurrent warm-restart load racing the delete still decodes cleanly
	// (or misses and re-sweeps).
	if old, err := filepath.Glob(filepath.Join(m.snapshotDir, s.ID+"-g*.store")); err == nil {
		for _, f := range old {
			if f != target {
				_ = os.Remove(f)
			}
		}
	}
	m.mu.Lock()
	m.stats.SnapshotSaves++
	m.mu.Unlock()
}

// occupancy reports the cache gauges for /metrics.
func (m *sessionManager) occupancy() (entries int, bytes int64, stats managerStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.Len(), m.cache.Bytes(), m.stats
}

// close cancels every live session's background work and waits for the
// build goroutines to return. Safe to call more than once.
func (m *sessionManager) close() {
	m.mu.Lock()
	for m.cache.Len() > 0 {
		m.cache.removeElement(m.cache.ll.Back())
	}
	m.mu.Unlock()
	// Outside the lock: cancelled builds may still need m.mu to count their
	// cancellation before they return.
	m.wg.Wait()
}

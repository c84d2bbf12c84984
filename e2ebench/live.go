package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"qagview"
	"qagview/internal/delta"
	"qagview/internal/relation"
	qagserver "qagview/internal/server"
	"qagview/internal/wal"
)

// liveWL is the only writer. qagviewd runs with -wal (one fsync per group
// commit) and a 1 MiB checkpoint threshold. Each set-up restarts it on a
// copy of a WAL directory written by an untimed, seeded prefill that ends
// in a crash, so set-up includes recovery: table snapshots plus a replayed
// log tail. Each client owns one session, over the ratings of one gender
// (M for client 0, F for client 1), and appends seeded batches of that
// gender's rows: an op appends a batch, reads its own session until it
// carries the new data version, and waits until the refreshed store is
// ready. The other client's appends never change a session's answers, so
// they only cost it a no-op refresh and never cancel its sweep.
type liveWL struct {
	specs   [2]sessionSpec
	pick    [2][]int // base rows of each client's gender
	prefill []appendBatch
	walDir  string // the prefilled, crashed WAL directory
	ids     [2]string
	rng     [2]*rand.Rand
	stream  [2][]liveOp
	end     [2][]endRead
}

type liveOp struct {
	batch appendBatch
	k, d  int
}

type liveCapture struct {
	op      liveOp
	gen     uint64 // data version the append acknowledged
	version uint64 // data version of the first fresh solution
	body    []byte
	source  string
	ready   sessionInfo
}

// endRead is one end-of-run read of a session, checked against a
// from-scratch recompute over the final table.
type endRead struct {
	k, d int // d == 0 marks the guidance read
	body []byte
}

const (
	// liveBatchRows is this benchmark's choice of a small append; nothing
	// records the batch sizes real writers send.
	liveBatchRows = 64
	livePass      = 2
	// liveTail is the number of prefill appends after the last checkpoint:
	// the log tail every set-up replays.
	liveTail        = 32
	liveCheckpoint  = 1 << 20
	liveAppendRoute = "POST /v1/tables/{id}/rows"
	// walOpAppend is the op byte qagviewd logs an append request under.
	walOpAppend = 2
)

var genders = [2]string{"M", "F"}

// liveAttrs are the paper's grouping attributes minus gender, which the
// sessions filter on.
var liveAttrs = []string{"hdec", "agegrp", "occupation", "decade", "zipregion", "weekday", "genre_action"}

func (w *liveWL) prepare(e *env) error {
	g, _ := e.data.flat.ColumnByName("gender")
	for c, gender := range genders {
		where := "gender = '" + gender + "'"
		n, err := e.data.threshold(liveAttrs, where, 1500)
		if err != nil {
			return err
		}
		s, err := e.data.clampL(sessionSpec{SQL: aggSQL(liveAttrs, "RatingTable", where, n), L: 1000, KMin: kMin, KMax: kMax, Ds: dGrid})
		if err != nil {
			return err
		}
		w.specs[c] = s
		for i, v := range g.Str {
			if v == gender {
				w.pick[c] = append(w.pick[c], i)
			}
		}
		w.rng[c] = rand.New(rand.NewSource(e.opts.seed*1_000_003 + 11 + int64(c)))
	}
	return w.runPrefill(e)
}

// runPrefill appends seeded batches to a fresh durable server until one
// checkpoint has completed, then liveTail more, and kills the server. Each
// append waits for a checkpoint it triggered, so the snapshot and the tail
// are the same on every run with the seed.
func (w *liveWL) runPrefill(e *env) error {
	w.walDir = filepath.Join(e.dir, "prefill-wal")
	srv, err := startServer(e, "-wal", w.walDir, "-wal-checkpoint-mb", "1")
	if err != nil {
		return err
	}
	defer srv.kill()
	c := newClient(srv.base, nil)
	defer c.close()
	rng := rand.New(rand.NewSource(e.opts.seed*1_000_003 + 13))
	tail := -1
	for tail < liveTail {
		b := e.data.newBatch(rng, liveBatchRows, nil)
		if _, err := c.call(liveAppendRoute, "POST", "/v1/tables/RatingTable/rows", map[string]any{"rows": b.rows}, http.StatusOK, nil); err != nil {
			return fmt.Errorf("prefill append: %w", err)
		}
		w.prefill = append(w.prefill, b)
		if tail >= 0 {
			tail++
			continue
		}
		m, err := c.metrics()
		if err != nil {
			return err
		}
		if m.WAL == nil || m.Recovery == nil {
			return fmt.Errorf("qagviewd -wal reports no WAL metrics")
		}
		if m.Recovery.Checkpoints == 0 && m.WAL.SizeBytes < liveCheckpoint {
			continue
		}
		for deadline := time.Now().Add(60 * time.Second); m.Recovery.Checkpoints == 0; {
			if time.Now().After(deadline) {
				return fmt.Errorf("prefill checkpoint did not complete in 60s")
			}
			time.Sleep(pollEvery)
			if m, err = c.metrics(); err != nil {
				return err
			}
		}
		tail = 0
	}
	return nil
}

func (w *liveWL) serverFlags(e *env, rep int) ([]string, error) {
	dir := filepath.Join(e.dir, "wal-"+strconv.Itoa(rep))
	if err := copyDir(w.walDir, dir); err != nil {
		return nil, err
	}
	return []string{"-wal", dir, "-wal-checkpoint-mb", "1"}, nil
}

// copyDir copies a WAL directory tree (segments and table snapshots).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

func (w *liveWL) setup(e *env, c *client) error {
	for i, s := range w.specs {
		info, err := c.openSession(s)
		if err != nil {
			return err
		}
		w.ids[i] = info.Session
	}
	for _, id := range w.ids {
		if _, err := c.waitReady(id, 0); err != nil {
			return err
		}
	}
	return nil
}

func (w *liveWL) passLen() int { return livePass }

func (w *liveWL) pass(e *env, c, p int) []liveOp {
	for len(w.stream[c]) < (p+1)*livePass {
		rng := w.rng[c]
		b := e.data.newBatch(rng, liveBatchRows, w.pick[c])
		w.stream[c] = append(w.stream[c], liveOp{batch: b, k: kMin + rng.Intn(kMax-kMin+1), d: dGrid[rng.Intn(len(dGrid))]})
	}
	return w.stream[c][p*livePass : (p+1)*livePass]
}

func (w *liveWL) run(e *env, c *client, r *opRecord) error {
	op := w.pass(e, r.client, r.pass)[r.idx]
	x := &liveCapture{op: op}
	r.x = x
	t0 := time.Now()
	var ack struct {
		DataVersion uint64 `json:"data_version"`
	}
	if _, err := c.call(liveAppendRoute, "POST", "/v1/tables/RatingTable/rows", map[string]any{"rows": op.batch.rows}, http.StatusOK, &ack); err != nil {
		return err
	}
	r.ack = time.Since(t0)
	x.gen = ack.DataVersion
	id := w.ids[r.client]
	for tries := 0; x.version < x.gen; tries++ {
		if tries == 100 {
			return fmt.Errorf("session %s still below data version %d", id, x.gen)
		}
		var sol solutionBody
		body, err := c.call("GET solution", "GET", fmt.Sprintf("/v1/sessions/%s/solution?k=%d&d=%d", id, op.k, op.d), nil, http.StatusOK, &sol)
		if err != nil {
			return err
		}
		x.body, x.version, x.source = body, sol.DataVersion, sol.Source
	}
	r.answer = time.Since(t0)
	var err error
	if x.ready, err = c.waitReady(id, x.gen); err != nil {
		return err
	}
	r.ready = time.Since(t0)
	return nil
}

// endGrid is the (k, D) points read from each session after the run.
var endGrid = [][2]int{{1, 1}, {5, 2}, {10, 3}, {20, 1}, {20, 2}, {40, 3}}

func (w *liveWL) finish(e *env, c *client, _ []*opRecord) error {
	for i, id := range w.ids {
		if _, err := c.waitReady(id, 0); err != nil {
			return err
		}
		w.end[i] = w.end[i][:0]
		for _, kd := range endGrid {
			body, err := c.call("", "GET", fmt.Sprintf("/v1/sessions/%s/solution?k=%d&d=%d", id, kd[0], kd[1]), nil, http.StatusOK, nil)
			if err != nil {
				return err
			}
			w.end[i] = append(w.end[i], endRead{k: kd[0], d: kd[1], body: body})
		}
		body, err := c.call("", "GET", "/v1/sessions/"+id+"/guidance", nil, http.StatusOK, nil)
		if err != nil {
			return err
		}
		w.end[i] = append(w.end[i], endRead{body: body})
	}
	return nil
}

func (w *liveWL) mirrored() (requests, layers []string) {
	return []string{"http." + liveAppendRoute, "http.GET solution"},
		[]string{"relation.append", "wal.append", "engine.scan", "delta.refresh", "summarize.hybrid", "precompute.solution"}
}

// verify replays each client's appends through the model: a copy-on-write
// append of the table, the session query, Live.Refresh and the answer for
// the source the first fresh read names. It then recomputes both sessions
// from scratch over the final table — every append in data-version order —
// and checks the end-of-run reads against that.
func (w *liveWL) verify(e *env, recs []*opRecord, m serverMetrics) (sessionEvents, error) {
	want := sessionEvents{builds: 2}
	if m.Recovery == nil || m.Recovery.RecordsReplayed != liveTail {
		return want, fmt.Errorf("set-up replayed %v WAL records, want the %d-record prefill tail", m.Recovery, liveTail)
	}
	base, err := appendRows(e.data.flat, w.prefill...)
	if err != nil {
		return want, err
	}
	var mwal *wal.Log
	if e.tr != nil {
		if err := w.recoverSpan(e); err != nil {
			return want, err
		}
		if mwal, _, err = wal.Open(filepath.Join(e.dir, "model-wal"), func(wal.Record) error { return nil }); err != nil {
			return want, err
		}
		defer mwal.Close()
	}
	var all []*opRecord
	userBytes := 0
	for c := range w.specs {
		var own []*opRecord
		for _, r := range recs {
			if r.client == c {
				own = append(own, r)
			}
		}
		n, err := w.replay(e, c, base, own, mwal)
		if err != nil {
			return want, err
		}
		want.refreshes += n
		all = append(all, own...)
	}
	for _, r := range all {
		userBytes += r.x.(*liveCapture).op.batch.userBytes
	}
	e.tr.sample("wal.user_bytes", float64(userBytes))
	return want, w.checkEnd(e, base, all)
}

// replay runs client c's ops through the model in order and returns how
// many of them changed the session's answers (the refreshes the server
// must have counted). A traced run also sends each append to an in-process
// server (see appendProbe) and logs it to the model's WAL.
func (w *liveWL) replay(e *env, c int, tbl *relation.Relation, own []*opRecord, mwal *wal.Log) (int64, error) {
	s := w.specs[c]
	db := qagview.NewDB()
	if err := db.Register(tbl); err != nil {
		return 0, err
	}
	var probe *appendProbe
	if e.tr != nil {
		var err error
		if probe, err = newAppendProbe(tbl); err != nil {
			return 0, err
		}
		defer probe.srv.Close()
	}
	sc := e.model.root(0)
	res, err := e.model.query(sc, db, s.SQL, "engine.scan", tbl.NumRows())
	if err != nil {
		return 0, err
	}
	b0, err := e.model.build(sc, res, s.L)
	e.tr.end(sc.parent)
	if err != nil {
		return 0, err
	}
	mt := delta.New(b0.ix)
	var refreshes int64
	for _, r := range own {
		x, ok := r.x.(*liveCapture)
		if r.err != nil || !ok {
			return refreshes, fmt.Errorf("client %d op %d failed; later answers cannot be checked", c, r.id)
		}
		sc := e.model.root(r.id)
		if probe != nil {
			if err := probe.append(e.model, sc, x.op.batch); err != nil {
				return refreshes, err
			}
		}
		if tbl, err = appendRows(tbl, x.op.batch); err != nil {
			return refreshes, err
		}
		if mwal != nil {
			payload, _ := json.Marshal(map[string]any{"rows": x.op.batch.rows})
			if err := e.model.timed(sc, "wal.append", func() error {
				return mwal.Append(wal.Record{Op: walOpAppend, Table: tbl.Name(), Gen: x.gen, Data: payload})
			}); err != nil {
				return refreshes, err
			}
		}
		if err := db.Register(tbl); err != nil {
			return refreshes, err
		}
		res, err := e.model.query(sc, db, s.SQL, "engine.scan", tbl.NumRows())
		if err != nil {
			return refreshes, err
		}
		var stats qagview.DeltaStats
		var changed bool
		if err := e.model.timed(sc, "delta.refresh", func() (err error) {
			stats, changed, err = mt.Refresh(res.Rows, res.Vals)
			return err
		}); err != nil {
			return refreshes, err
		}
		if changed {
			refreshes++
			e.tr.sample("lattice.fast_path", boolf(stats.FastPath))
			e.tr.sample("lattice.touched_clusters", float64(stats.TouchedClusters))
		}
		b := &built{res: res, space: mt.Index().Space, ix: mt.Index(), L: s.L}
		if e.tr != nil || x.source == "store" {
			if err := e.model.timed(sc, "precompute.warm", func() (err error) {
				b.store, err = mt.Precompute(kMin, kMax, dGrid)
				return err
			}); err != nil {
				return refreshes, err
			}
			e.model.storeSamples(b.store)
		}
		sol, err := e.model.forSource(sc, b, x.source, x.op.k, x.op.d)
		if err == nil {
			_, err = checkSolution(b, sol, x.body, false)
		}
		if err == nil && x.version < x.gen {
			err = fmt.Errorf("fresh read at data version %d, append acknowledged %d", x.version, x.gen)
		}
		if err == nil && b.store != nil && x.ready.StoreIntervals != b.store.StoredIntervals() {
			err = fmt.Errorf("ready store holds %d intervals, library store %d", x.ready.StoreIntervals, b.store.StoredIntervals())
		}
		e.tr.end(sc.parent)
		if err != nil {
			r.err = fmt.Errorf("answer at k=%d d=%d: %w", x.op.k, x.op.d, err)
		}
	}
	return refreshes, nil
}

// appendProbe is qagviewd's own append path run in the benchmark's process:
// a server.Server without a WAL, holding only RatingTable, to which a traced
// run posts each op's batch through its HTTP handler. The relation.append
// span times that request (parsing the rows, copying the table
// copy-on-write, relation.FromColumns); relation.copied_per_appended_byte
// is the heap the request allocated (runtime TotalAlloc, which counts
// every allocation in the process) over the in-memory size of the batch.
type appendProbe struct {
	srv *qagserver.Server
	h   http.Handler
}

func newAppendProbe(tbl *relation.Relation) (*appendProbe, error) {
	srv := qagserver.New(qagserver.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err := srv.Register(tbl); err != nil {
		return nil, err
	}
	return &appendProbe{srv: srv, h: srv.Handler()}, nil
}

func (p *appendProbe) append(m *model, sc scope, b appendBatch) error {
	body, err := json.Marshal(map[string]any{"rows": b.rows})
	if err != nil {
		return err
	}
	req := httptest.NewRequest("POST", "/v1/tables/RatingTable/rows", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = m.timed(sc, "relation.append", func() error {
		p.h.ServeHTTP(rec, req)
		return nil
	})
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process append: status %d: %s", rec.Code, rec.Body.String())
	}
	m.tr.sample("relation.copied_per_appended_byte", float64(after.TotalAlloc-before.TotalAlloc)/float64(b.batchBytes()))
	return nil
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// checkEnd recomputes both sessions from scratch over the final table and
// checks the end-of-run reads, which the ready stores serve.
func (w *liveWL) checkEnd(e *env, base *relation.Relation, all []*opRecord) error {
	slices.SortFunc(all, func(a, b *opRecord) int {
		return int(a.x.(*liveCapture).gen) - int(b.x.(*liveCapture).gen)
	})
	batches := make([]appendBatch, len(all))
	for i, r := range all {
		batches[i] = r.x.(*liveCapture).op.batch
	}
	final, err := appendRows(base, batches...)
	if err != nil {
		return err
	}
	db := qagview.NewDB()
	if err := db.Register(final); err != nil {
		return err
	}
	quiet := &model{}
	for c, s := range w.specs {
		res, err := quiet.query(scope{}, db, s.SQL, "engine.scan", final.NumRows())
		if err != nil {
			return err
		}
		b, err := quiet.build(scope{}, res, s.L)
		if err != nil {
			return err
		}
		if err := quiet.precompute(scope{}, b); err != nil {
			return err
		}
		for _, rd := range w.end[c] {
			if rd.d == 0 {
				var got guidanceBody
				if err := json.Unmarshal(rd.body, &got); err != nil {
					return err
				}
				if err := checkGuidance(b.store.Guidance(), got); err != nil {
					return fmt.Errorf("session %d end guidance: %w", c, err)
				}
				continue
			}
			sol, err := b.store.Solution(rd.k, rd.d)
			if err != nil {
				return err
			}
			got, err := checkSolution(b, sol, rd.body, false)
			if err == nil && got.Source != "store" {
				err = fmt.Errorf("source %q, want the ready store", got.Source)
			}
			if err != nil {
				return fmt.Errorf("session %d end read k=%d d=%d: %w", c, rd.k, rd.d, err)
			}
		}
	}
	return nil
}

// recoverSpan times server.Server.Recover on a copy of the prefilled WAL
// directory, over the model's own sample tables.
func (w *liveWL) recoverSpan(e *env) error {
	dir := filepath.Join(e.dir, "wal-recover")
	if err := copyDir(w.walDir, dir); err != nil {
		return err
	}
	srv := qagserver.New(qagserver.Config{WALDir: dir, WALCheckpointBytes: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	for _, rel := range append(e.data.star.Tables(), e.data.flat) {
		if err := srv.Register(rel); err != nil {
			return err
		}
	}
	sc := e.model.root(0)
	var st qagserver.RecoverStats
	err := e.model.timed(sc, "wal.recover", func() (err error) {
		st, err = srv.Recover()
		return err
	})
	e.tr.end(sc.parent)
	if err != nil {
		return err
	}
	if st.RecordsReplayed != liveTail {
		return fmt.Errorf("recovery replayed %d records, want %d", st.RecordsReplayed, liveTail)
	}
	return srv.Drain()
}

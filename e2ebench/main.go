// Command e2ebench is qagview's end-to-end benchmark. It boots a real
// qagviewd built from the checkout under test, drives one named workload
// over loopback HTTP from two closed-loop clients on two keep-alive
// connections, checks every answer against the library run over the
// benchmark's own copy of the seeded data, and prints the metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 612, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds both binaries first:
//
//	bash e2ebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run also records spans (HTTP requests and calls into
// each layer's entry points), writes them to .bench_build/traces/, and
// reports the per-layer metrics instead of the end-to-end ones. README.md
// records why each workload exists and what each metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	qagviewd string // path to the qagviewd binary under test
	workdir  string // scratch root inside the checkout
	ratings  int    // sample size override for the self-test; 0 keeps MovieLens-100K scale
}

// setups is the number of set-up repetitions per run; setup_s is their
// median.
const setups = 3

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAll()
		os.Exit(1)
	}()
	res, err := run(opts, os.Stdout)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the op sequence")
	fs.IntVar(&o.seconds, "seconds", 12, "timed seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&o.qagviewd, "qagviewd", "", "qagviewd binary to benchmark")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for WAL copies, logs and traces")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	switch {
	case newWorkload(o.workload) == nil:
		return o, fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	case o.qagviewd == "":
		return o, fmt.Errorf("-qagviewd is required")
	case o.seconds < 1 || trace < 0 || trace > 1:
		return o, fmt.Errorf("bad -seconds or -trace")
	}
	return o, nil
}

// workload is one named traffic mix. Its ops come from a seeded stream per
// client, cut into passes; pass 0 is the untimed warm-up and the timed
// phase runs whole passes until the run's seconds are up.
type workload interface {
	// prepare makes the seeded inputs; it runs before any measured server.
	prepare(e *env) error
	// serverFlags returns extra qagviewd flags for set-up repetition rep.
	serverFlags(e *env, rep int) ([]string, error)
	// setup readies a fresh server for the op stream.
	setup(e *env, c *client) error
	// passLen is the number of ops in one client's pass.
	passLen() int
	// run executes one op, filling its timings and capture.
	run(e *env, c *client, r *opRecord) error
	// finish runs after the timed phase on the still-running server.
	// It receives the measured server's records.
	finish(e *env, c *client, recs []*opRecord) error
	// verify checks every op of the measured server against the model,
	// setting r.err on mismatches, and returns the session events the op
	// sequence implies plus any run-level failure.
	verify(e *env, recs []*opRecord, m serverMetrics) (sessionEvents, error)
	// mirrored names the request and layer spans whose difference is the
	// server's own time (server.self_ms).
	mirrored() (requests, layers []string)
}

type sessionEvents struct{ builds, deletes, refreshes, evictions int64 }

func workloadNames() []string { return []string{"explore", "open", "open_join", "live"} }

func newWorkload(name string) workload {
	switch name {
	case "explore":
		return &exploreWL{}
	case "open":
		return &openWL{}
	case "open_join":
		return &openWL{join: true}
	case "live":
		return &liveWL{}
	}
	return nil
}

// opRecord is one executed op. ack, answer and ready are measured from the
// op's start: the first acknowledgement, the first answer body, and the
// moment the answer's precomputed store is ready.
type opRecord struct {
	id, client, pass, idx int
	warm                  bool
	start                 time.Time
	ack, answer, ready    time.Duration
	err                   error
	x                     any // workload capture for verification
}

// env is one benchmark run.
type env struct {
	opts      options
	dir       string // this run's scratch directory
	data      *dataset
	tr        *tracer // nil unless tracing
	model     *model
	hashSeed  maphash.Seed
	nextOp    atomic.Int64
	serverSeq int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(opts options, out io.Writer) (*result, error) {
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.workdir, "run-"+opts.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	data, err := loadDataset(opts.ratings)
	if err != nil {
		return nil, err
	}
	e := &env{opts: opts, dir: dir, data: data, hashSeed: maphash.MakeSeed()}
	if opts.trace {
		e.tr = newTracer()
	}
	e.model = &model{tr: e.tr}
	w := newWorkload(opts.workload)
	o, err := e.execute(w)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: len(o.failures) == 0, Attempted: len(o.recs)}
	for _, r := range o.recs {
		if r.err != nil {
			res.Failed++
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	e2e := endToEnd(o)
	res.Metrics = e2e
	var l *layerData
	if opts.trace {
		l = e.layers(w, o)
		res.Metrics = perLayer(l)
		if err := os.MkdirAll(filepath.Join(opts.workdir, "traces"), 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(opts.workdir, "traces", fmt.Sprintf("%s-seed%d.json", opts.workload, opts.seed))
		if err := e.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", path)
	}
	e.report(out, o, e2e, l, res)
	return res, nil
}

// outcome is what one run measured.
type outcome struct {
	setups   []float64          // seconds per set-up repetition
	recs     []*opRecord        // warm-up and timed ops of the measured server
	timedN   []int              // timed ops per client
	start    time.Time          // start of the timed phase
	wall     time.Duration      // until the last client finished its last pass
	rssMB    float64            // server VmHWM at the end of the run
	phases   map[string]float64 // wall seconds per phase of the run
	metrics  serverMetrics
	failures []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// execute runs set-up setups times (each on a fresh server; the last
// one stays up), then the timed phase, then the checks.
func (e *env) execute(w workload) (*outcome, error) {
	o := &outcome{phases: map[string]float64{}}
	t := time.Now()
	lap := func(phase string) {
		o.phases[phase] = time.Since(t).Seconds()
		t = time.Now()
	}
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("preparing %s: %w", e.opts.workload, err)
	}
	lap("prepare")
	var srv *server
	defer func() { srv.kill() }()
	for rep := 0; rep < setups; rep++ {
		flags, err := w.serverFlags(e, rep)
		if err != nil {
			return nil, err
		}
		last := rep == setups-1
		t0 := time.Now()
		srv, err = startServer(e, flags...)
		if err != nil {
			return nil, err
		}
		ctl := newClient(srv.base, nil)
		if err := w.setup(e, ctl); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ctl.close()
		warm := e.runWarmup(w, srv, last)
		o.setups = append(o.setups, time.Since(t0).Seconds())
		for _, r := range warm {
			if r.err != nil && !last {
				o.fail("set-up %d: warm-up op %d: %v", rep+1, r.id, r.err)
			}
		}
		if last {
			o.recs = warm
			break
		}
		srv.kill()
	}
	lap("setups")
	o.start = time.Now()
	timed, ends := e.runTimed(w, srv, o.start.Add(time.Duration(e.opts.seconds)*time.Second))
	o.timedN = make([]int, len(timed))
	for c, recs := range timed {
		o.timedN[c] = len(recs)
		o.recs = append(o.recs, recs...)
		o.wall = max(o.wall, ends[c].Sub(o.start))
	}
	lap("timed")
	ctl := newClient(srv.base, nil)
	defer ctl.close()
	if err := w.finish(e, ctl, o.recs); err != nil {
		o.fail("end-of-run reads: %v", err)
	}
	m, err := ctl.metrics()
	if err != nil {
		return nil, err
	}
	o.metrics = m
	if o.rssMB, err = srv.statusMB("VmHWM"); err != nil {
		return nil, err
	}
	srv.kill()
	srv = nil
	lap("finish")

	want, err := w.verify(e, o.recs, m)
	if err != nil {
		o.fail("%v", err)
	}
	lap("verify")
	got := m.Sessions.Events
	if got.Builds != want.builds || got.Deletes != want.deletes || got.Refreshes != want.refreshes || got.Evictions != want.evictions {
		o.fail("session events builds/deletes/refreshes/evictions = %d/%d/%d/%d, the op sequence implies %d/%d/%d/%d",
			got.Builds, got.Deletes, got.Refreshes, got.Evictions, want.builds, want.deletes, want.refreshes, want.evictions)
	}
	if m.PanicsRecovered != 0 || m.AdmissionRejects != 0 || got.BuildErrors != 0 || got.Deduped != 0 {
		o.fail("server counters: %d panics recovered, %d admission rejects, %d build errors, %d deduped builds",
			m.PanicsRecovered, m.AdmissionRejects, got.BuildErrors, got.Deduped)
	}
	return o, nil
}

// onClients runs fn for both clients at once, each on its own
// connection, and returns when both are done.
func onClients(base string, tr *tracer, fn func(c int, cl *client)) {
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(base, tr)
			defer cl.close()
			fn(c, cl)
		}()
	}
	wg.Wait()
}

// runWarmup runs pass 0, the untimed warm-up, on both clients; only the
// measured server's warm-up is traced.
func (e *env) runWarmup(w workload, srv *server, traced bool) []*opRecord {
	var tr *tracer
	if traced {
		tr = e.tr
	}
	per := make([][]*opRecord, 2)
	onClients(srv.base, tr, func(c int, cl *client) { per[c] = e.runPass(w, cl, c, 0, true) })
	return append(per[0], per[1]...)
}

// runTimed has both clients run whole passes until the deadline and
// returns each client's records and finishing time.
func (e *env) runTimed(w workload, srv *server, deadline time.Time) ([][]*opRecord, []time.Time) {
	per := make([][]*opRecord, 2)
	ends := make([]time.Time, 2)
	onClients(srv.base, e.tr, func(c int, cl *client) {
		for p := 1; time.Now().Before(deadline); p++ {
			per[c] = append(per[c], e.runPass(w, cl, c, p, false)...)
		}
		ends[c] = time.Now()
	})
	return per, ends
}

func (e *env) runPass(w workload, cl *client, c, p int, warm bool) []*opRecord {
	recs := make([]*opRecord, w.passLen())
	for i := range recs {
		r := &opRecord{id: int(e.nextOp.Add(1)), client: c, pass: p, idx: i, warm: warm, start: time.Now()}
		cl.op = r.id
		cl.span = cl.tr.begin("op", 0, r.id)
		r.err = w.run(e, cl, r)
		cl.tr.end(cl.span)
		recs[i] = r
		time.Sleep(e.pause(c, p, i))
	}
	return recs
}

// thinkMax bounds the think time after each op.
const thinkMax = 20 * time.Millisecond

// pause is the seeded think time after op i of client c's pass p, uniform
// in [0, thinkMax): an analyst's GUI does not send its next request the
// moment an answer arrives. Without it two closed loops whose ops have a
// heavy phase (the append, the join) can fall into step, so that every op
// of a run collides with the other client's heavy phase, or none does, and
// the run's latencies depend on which. Without it explore's reads, about a
// millisecond each, kept both cores busy, and its read times spread twice
// as much between runs (RESULTS.md).
func (e *env) pause(c, p, i int) time.Duration {
	rng := rand.New(rand.NewPCG(uint64(e.opts.seed), uint64(c)<<48|uint64(p)<<16|uint64(i)))
	return time.Duration(rng.Int64N(int64(thinkMax)))
}

// endToEnd computes the user-visible metrics over the timed ops: the rate
// over the timed phase, and each percentile over every timed op of both
// clients.
func endToEnd(o *outcome) map[string]metric {
	var ack, answer, ready []float64
	for _, r := range o.recs {
		if r.warm || r.err != nil {
			continue
		}
		ack = append(ack, ms(r.ack))
		answer = append(answer, ms(r.answer))
		ready = append(ready, ms(r.ready))
	}
	out := map[string]metric{
		"setup_s":     {median(o.setups), "s"},
		"peak_rss_mb": {o.rssMB, "MiB"},
		"ops_per_s":   {float64(len(ack)) / o.wall.Seconds(), "1/s"},
	}
	for name, xs := range map[string][]float64{"ack_ms": ack, "answer_ms": answer, "ready_ms": ready} {
		out[name+".p50"] = metric{percentile(xs, 0.5), "ms"}
		out[name+".p90"] = metric{percentile(xs, 0.9), "ms"}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// report prints the run header and the metric tables; the caller prints the
// JSON result as the last line.
func (e *env) report(out io.Writer, o *outcome, e2e map[string]metric, l *layerData, res *result) {
	timed := 0
	for _, n := range o.timedN {
		timed += n
	}
	hdr := map[string]any{
		"workload":   e.opts.workload,
		"seed":       e.opts.seed,
		"seconds":    e.opts.seconds,
		"trace":      e.opts.trace,
		"commit":     commitOf(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"clients":    2,
		"loop":       "closed",
		"ops":        map[string]int{"warmup": len(o.recs) - timed, "timed": timed},
		"setups_s":   o.setups,
		"phases_s":   o.phases,
		"qagviewd":   binaryHash(e.opts.qagviewd),
		"data": map[string]int{
			"RatingTable": e.data.flat.NumRows(), "ratings": e.data.star.Ratings.NumRows(),
			"users": e.data.star.Users.NumRows(), "movies": e.data.star.Movies.NumRows(),
			"RatingTable_cols": e.data.flat.NumCols(),
		},
	}
	hb, _ := json.Marshal(hdr)
	fmt.Fprintf(out, "# run %s\n", hb)
	ok := 0
	for _, r := range o.recs {
		if !r.warm && r.err == nil {
			ok++
		}
	}
	fmt.Fprintf(out, "# end-to-end (%s): n=%d timed ops over the %.1fs timed phase; every percentile is over all n\n",
		e.opts.workload, ok, o.wall.Seconds())
	printMetrics(out, e2e, aliases[e.opts.workload])
	if l != nil {
		fmt.Fprintf(out, "# per-layer (traced run)\n")
		printMetrics(out, res.Metrics, nil)
		printSpanTable(out, l)
	}
	for _, f := range o.failures {
		fmt.Fprintf(out, "# FAIL %s\n", f)
	}
	for _, r := range o.recs {
		if r.err != nil {
			fmt.Fprintf(out, "# FAIL op %d (client %d pass %d): %v\n", r.id, r.client, r.pass, r.err)
		}
	}
	fmt.Fprintf(out, "# correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// aliases gives each workload's end-to-end metrics the names the role has
// there: an explore op is one read, so all three roles are that read.
var aliases = map[string]map[string]string{
	"explore":   {"ack_ms": "read_ms", "answer_ms": "read_ms", "ready_ms": "read_ms"},
	"open":      {"ack_ms": "create_ms", "answer_ms": "open_ms", "ready_ms": "ready_ms"},
	"open_join": {"ack_ms": "create_ms", "answer_ms": "open_ms", "ready_ms": "ready_ms"},
	"live":      {"ack_ms": "append_ms", "answer_ms": "fresh_ms", "ready_ms": "ready_ms"},
}

func printMetrics(out io.Writer, ms map[string]metric, alias map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if base, _, ok := strings.Cut(n, "."); ok && alias[base] != "" {
			note = "  (" + alias[base] + ")"
		}
		fmt.Fprintf(out, "#   %-36s %14.4f %-8s%s\n", n, ms[n].Value, ms[n].Unit, note)
	}
}

// commitOf returns the checkout's git commit, when it is a git work tree.
func commitOf() string {
	b, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown (not a git checkout)"
	}
	head := strings.TrimSpace(string(b))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		if c, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
			return strings.TrimSpace(string(c))
		}
		return ref
	}
	return head
}

// binaryHash fingerprints the qagviewd binary under test, which names the
// code even where the checkout carries no git metadata.
func binaryHash(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:8])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http"
	"time"

	"qagview/internal/precompute"
	"qagview/internal/sankey"
	"qagview/internal/summarize"
)

// exploreWL is the interactive loop after precompute: a fixed set of
// paper-scale sessions, all ready and all inside the session LRU, read by a
// seeded stream of the paper's three aids — (k, D) solutions (some
// expanded to their members), Sankey diffs between consecutive (k, D), and
// guidance. No op runs the engine, a lattice build or the WAL.
type exploreWL struct {
	specs    []sessionSpec
	ids      []string
	rng      [2]*rand.Rand
	stream   [2][]exploreOp
	models   []*built
	verified map[string]uint64 // path -> hash of its checked body
}

type exploreOp struct {
	kind         string // solution, diff or guidance
	sess         int
	k, d, k2, d2 int
	expand       bool
}

// exploreCapture is what a read returned. Bodies are not kept: finish
// re-fetches each distinct path once and checks it, and every op's body
// must hash the same.
type exploreCapture struct {
	op   exploreOp
	path string
	hash uint64
}

// exploreKinds are the four reads: a solution, a solution expanded to its
// cluster members, a diff and guidance. Nothing records how often an
// analyst uses each, so the mix is uniform: a pass holds every kind on
// every session exploreRounds times, in a seeded order.
var exploreKinds = []exploreOp{{kind: "solution"}, {kind: "solution", expand: true}, {kind: "diff"}, {kind: "guidance"}}

const exploreRounds = 3

func (w *exploreWL) prepare(e *env) error {
	for _, m := range []int{7, 8} {
		for _, L := range []int{500, 1000} {
			s, err := e.data.spec(m, 1900, L, "RatingTable")
			if err != nil {
				return err
			}
			w.specs = append(w.specs, s)
		}
	}
	for c := range w.rng {
		w.rng[c] = rand.New(rand.NewSource(e.opts.seed*1_000_003 + int64(c)))
	}
	return nil
}

func (w *exploreWL) serverFlags(*env, int) ([]string, error) { return nil, nil }

func (w *exploreWL) setup(e *env, c *client) error {
	w.ids = w.ids[:0]
	for _, s := range w.specs {
		info, err := c.openSession(s)
		if err != nil {
			return err
		}
		w.ids = append(w.ids, info.Session)
	}
	for _, id := range w.ids {
		if _, err := c.waitReady(id, 0); err != nil {
			return err
		}
	}
	return nil
}

func (w *exploreWL) passLen() int { return exploreRounds * len(exploreKinds) * len(w.specs) }

// gridPoint is a (k, D) of the session grid.
type gridPoint struct{ k, d int }

func randomPoint(rng *rand.Rand) gridPoint {
	return gridPoint{kMin + rng.Intn(kMax-kMin+1), dGrid[rng.Intn(len(dGrid))]}
}

// neighbour returns a neighbouring (k, D), each equally likely: k one up or
// down, or D another grid value.
func (g gridPoint) neighbour(rng *rand.Rand) gridPoint {
	var next []gridPoint
	if g.k > kMin {
		next = append(next, gridPoint{g.k - 1, g.d})
	}
	if g.k < kMax {
		next = append(next, gridPoint{g.k + 1, g.d})
	}
	for _, d := range dGrid {
		if d != g.d {
			next = append(next, gridPoint{g.k, d})
		}
	}
	return next[rng.Intn(len(next))]
}

// pass returns client c's ops of pass p, generating the stream up to it.
// Every read draws its (k, D) uniformly from the grid, and a diff compares
// it with a uniformly drawn neighbour. A walk from neighbour to neighbour,
// as a slider moves, would cover the grid slowly: a run makes about 250
// reads per client and session, and a ±1 walk over k strays only about
// ten steps in that many, so the k a run visits, and with them the work
// per read, would depend on the seed's starting point. The server keeps
// no per-(k, D) cache, so drawing each point afresh changes no read's
// cost.
func (w *exploreWL) pass(c, p int) []exploreOp {
	n := w.passLen()
	for len(w.stream[c]) < (p+1)*n {
		rng := w.rng[c]
		ops := make([]exploreOp, 0, n)
		for range exploreRounds {
			for sess := range w.specs {
				for _, op := range exploreKinds {
					op.sess = sess
					ops = append(ops, op)
				}
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for i := range ops {
			op := &ops[i]
			at := randomPoint(rng)
			op.k, op.d = at.k, at.d
			if op.kind == "diff" {
				to := at.neighbour(rng)
				op.k2, op.d2 = to.k, to.d
			}
		}
		w.stream[c] = append(w.stream[c], ops...)
	}
	return w.stream[c][p*n : (p+1)*n]
}

func (op exploreOp) path(id string) string {
	switch op.kind {
	case "solution":
		p := fmt.Sprintf("/v1/sessions/%s/solution?k=%d&d=%d", id, op.k, op.d)
		if op.expand {
			p += "&expand=1"
		}
		return p
	case "diff":
		return fmt.Sprintf("/v1/sessions/%s/diff?k1=%d&d1=%d&k2=%d&d2=%d", id, op.k, op.d, op.k2, op.d2)
	}
	return "/v1/sessions/" + id + "/guidance"
}

func (w *exploreWL) run(e *env, c *client, r *opRecord) error {
	op := w.pass(r.client, r.pass)[r.idx]
	path := op.path(w.ids[op.sess])
	t0 := time.Now()
	body, err := c.call("GET "+op.kind, "GET", path, nil, http.StatusOK, nil)
	d := time.Since(t0)
	r.ack, r.answer, r.ready = d, d, d
	r.x = &exploreCapture{op: op, path: path, hash: maphash.Bytes(e.hashSeed, body)}
	return err
}

// finish builds the model, then re-fetches every distinct path the run
// read, once and untimed, and checks that body against the library. Reads
// are deterministic (nothing writes), so verify only has to match hashes.
func (w *exploreWL) finish(e *env, c *client, recs []*opRecord) error {
	sc := e.model.root(0)
	w.models = make([]*built, len(w.specs))
	for i, s := range w.specs {
		res, err := e.model.query(sc, e.data.db, s.SQL, "engine.scan", e.data.flat.NumRows())
		if err != nil {
			return err
		}
		if w.models[i], err = e.model.build(sc, res, s.L); err != nil {
			return err
		}
		if err := e.model.precompute(sc, w.models[i]); err != nil {
			return err
		}
	}
	e.model.tr.end(sc.parent)

	// The re-reads are checks, not the ops' layer calls: keep them out of
	// the spans. Two workers share the re-reads, one connection each.
	var todo []*exploreCapture
	w.verified = make(map[string]uint64)
	for _, r := range recs {
		if x, ok := r.x.(*exploreCapture); ok {
			if _, dup := w.verified[x.path]; !dup {
				w.verified[x.path] = 0
				todo = append(todo, x)
			}
		}
	}
	quiet := &model{}
	hashes := make([]uint64, len(todo))
	errs := make([]error, 2)
	onClients(c.base, nil, func(wi int, cl *client) {
		for i := wi; i < len(todo) && errs[wi] == nil; i += len(errs) {
			x := todo[i]
			body, err := cl.call("", "GET", x.path, nil, http.StatusOK, nil)
			if err == nil {
				err = w.check(quiet, scope{}, x.op, body)
			}
			if err != nil {
				errs[wi] = fmt.Errorf("%s: %w", x.path, err)
			}
			hashes[i] = maphash.Bytes(e.hashSeed, body)
		}
	})
	for i, x := range todo {
		w.verified[x.path] = hashes[i]
	}
	return errors.Join(errs...)
}

// exploreAnswer is the library's answer to one read.
type exploreAnswer struct {
	left, right *summarize.Solution
	diff        *sankey.Diff
	guidance    *precompute.Guidance
}

// answer runs one read's library calls: Store.Solution for a solution,
// two of them plus Summarizer.Compare for a diff, Store.Guidance.
func (w *exploreWL) answer(m *model, sc scope, op exploreOp) (a exploreAnswer, err error) {
	b := w.models[op.sess]
	switch op.kind {
	case "solution":
		a.left, err = m.solution(sc, b, op.k, op.d)
	case "diff":
		if a.left, err = m.solution(sc, b, op.k, op.d); err != nil {
			return a, err
		}
		if a.right, err = m.solution(sc, b, op.k2, op.d2); err != nil {
			return a, err
		}
		a.diff, err = m.diff(sc, b, a.left, a.right)
	default:
		a.guidance = m.guidance(sc, b)
	}
	return a, err
}

// check compares one read's body with the library answer.
func (w *exploreWL) check(m *model, sc scope, op exploreOp, body []byte) error {
	a, err := w.answer(m, sc, op)
	if err != nil {
		return err
	}
	b := w.models[op.sess]
	switch op.kind {
	case "solution":
		got, err := checkSolution(b, a.left, body, op.expand)
		if err == nil && (got.Source != "store" || got.DataVersion != 1) {
			err = fmt.Errorf("source %q at data version %d, want the store at version 1", got.Source, got.DataVersion)
		}
		return err
	case "diff":
		var got diffBody
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.From.Source != "store" || got.To.Source != "store" {
			return fmt.Errorf("diff sources %q/%q, want the store", got.From.Source, got.To.Source)
		}
		return checkDiff(b, a.left, a.right, a.diff, got)
	}
	var got guidanceBody
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	return checkGuidance(a.guidance, got)
}

func (w *exploreWL) mirrored() (requests, layers []string) {
	return []string{"http.GET solution", "http.GET diff", "http.GET guidance"},
		[]string{"precompute.solution", "sankey.diff", "precompute.guidance"}
}

// verify matches every op's body hash with its checked re-read. A traced
// run also repeats each op's library calls under the op, for the
// per-layer spans.
func (w *exploreWL) verify(e *env, recs []*opRecord, _ serverMetrics) (sessionEvents, error) {
	want := sessionEvents{builds: int64(len(w.specs))}
	for _, r := range recs {
		x, ok := r.x.(*exploreCapture)
		if r.err != nil || !ok {
			continue
		}
		h, checked := w.verified[x.path]
		switch {
		case !checked:
			r.err = fmt.Errorf("%s was never checked", x.path)
		case h != x.hash:
			r.err = fmt.Errorf("%s returned a body that differs from its checked re-read", x.path)
		}
		if e.tr != nil && r.err == nil {
			sc := e.model.root(r.id)
			_, _ = w.answer(e.model, sc, x.op)
			e.tr.end(sc.parent)
		}
	}
	return want, nil
}

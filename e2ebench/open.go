package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"time"
)

// openWL opens paper-scale sessions: each op creates a session for a
// seeded query, reads its first solution (the time to first summary), waits
// until its (k, D) store is ready, and deletes it, so every op misses the
// session cache and pays query, cluster-space build and precompute. With
// join set the same queries run over ratings JOIN users JOIN movies, whose
// result is bit-identical, so only the join differs.
//
// The query pool is fixed: 6-8 grouping attributes (the paper's Figure 7
// range), about 1200, 1900 or 2600 groups, and L of 500 or 1000, 18
// sessions split 9 and 9 between the clients so the two never open the
// same query at once. The seed draws the order and each op's (k, D). The
// group counts are this benchmark's choice; nothing records the sizes
// analysts actually query.
type openWL struct {
	join   bool
	pool   []sessionSpec
	owned  [2][]int // pool entries per client
	rng    [2]*rand.Rand
	stream [2][]openOp
}

type openOp struct{ entry, k, d int }

type openCapture struct {
	op     openOp
	create sessionInfo
	body   []byte // first solution
	source string
	ready  sessionInfo
}

func (w *openWL) prepare(e *env) error {
	from := "RatingTable"
	if w.join {
		from = starFrom
	}
	seen := map[string]bool{}
	for mi, m := range []int{6, 7, 8} {
		for ni, n := range []int{1200, 1900, 2600} {
			for li, L := range []int{500, 1000} {
				s, err := e.data.spec(m, n, L, from)
				if err != nil {
					return err
				}
				key := fmt.Sprintf("%s|%d", s.SQL, s.L)
				if seen[key] { // only the tiny self-test data collapses entries
					continue
				}
				seen[key] = true
				c := (mi + ni + li) % 2
				w.owned[c] = append(w.owned[c], len(w.pool))
				w.pool = append(w.pool, s)
			}
		}
	}
	for c := range w.rng {
		w.rng[c] = rand.New(rand.NewSource(e.opts.seed*1_000_003 + 7 + int64(c)))
	}
	return nil
}

func (w *openWL) serverFlags(*env, int) ([]string, error) { return nil, nil }

func (w *openWL) setup(*env, *client) error { return nil }

func (w *openWL) passLen() int { return min(len(w.owned[0]), len(w.owned[1])) }

// pass returns client c's ops of pass p: its pool entries in a seeded
// order, each with a seeded (k, D).
func (w *openWL) pass(c, p int) []openOp {
	n := w.passLen()
	for len(w.stream[c]) < (p+1)*n {
		rng := w.rng[c]
		order := slices.Clone(w.owned[c])
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, entry := range order[:n] {
			w.stream[c] = append(w.stream[c], openOp{entry: entry, k: kMin + rng.Intn(kMax-kMin+1), d: dGrid[rng.Intn(len(dGrid))]})
		}
	}
	return w.stream[c][p*n : (p+1)*n]
}

func (w *openWL) run(e *env, c *client, r *opRecord) error {
	op := w.pass(r.client, r.pass)[r.idx]
	x := &openCapture{op: op}
	r.x = x
	t0 := time.Now()
	info, err := c.openSession(w.pool[op.entry])
	r.ack = time.Since(t0)
	if err != nil {
		return err
	}
	x.create = info
	if info.Reused {
		return fmt.Errorf("session %s was reused; every open must build", info.Session)
	}
	var sol solutionBody
	x.body, err = c.call("GET solution", "GET", fmt.Sprintf("/v1/sessions/%s/solution?k=%d&d=%d", info.Session, op.k, op.d), nil, http.StatusOK, &sol)
	r.answer = time.Since(t0)
	if err != nil {
		return err
	}
	x.source = sol.Source
	if x.ready, err = c.waitReady(info.Session, 0); err != nil {
		return err
	}
	r.ready = time.Since(t0)
	_, err = c.call("DELETE /v1/sessions/{id}", "DELETE", "/v1/sessions/"+info.Session, nil, http.StatusOK, nil)
	return err
}

func (w *openWL) finish(*env, *client, []*opRecord) error { return nil }

func (w *openWL) mirrored() (requests, layers []string) {
	return []string{"http.POST /v1/sessions", "http.GET solution"},
		[]string{"engine.scan", "engine.join", "lattice.build", "summarize.hybrid", "precompute.solution"}
}

// verify rebuilds each op's session in the model and checks the create
// response, the first solution and the finished store. An untraced run
// builds each pool entry once; a traced run repeats the build per op, so
// every op carries its own layer spans.
func (w *openWL) verify(e *env, recs []*opRecord, _ serverMetrics) (sessionEvents, error) {
	var want sessionEvents
	cache := map[int]*built{}
	for _, r := range recs {
		x, ok := r.x.(*openCapture)
		if !ok || x.create.Session == "" {
			continue
		}
		want.builds++
		if r.err == nil {
			want.deletes++
		}
		if r.err != nil {
			continue
		}
		sc := e.model.root(r.id)
		b, err := w.model(e, sc, x.op.entry, cache)
		if err == nil {
			err = w.check(e, sc, b, x)
		}
		e.tr.end(sc.parent)
		if err != nil {
			r.err = err
		}
	}
	return want, nil
}

// model returns pool entry i's session in the model: query, cluster space
// and, for the ready check, its cold store.
func (w *openWL) model(e *env, sc scope, i int, cache map[int]*built) (*built, error) {
	if b := cache[i]; b != nil && e.tr == nil {
		return b, nil
	}
	s := w.pool[i]
	layer := "engine.scan"
	if w.join {
		layer = "engine.join"
	}
	res, err := e.model.query(sc, e.data.db, s.SQL, layer, e.data.star.Ratings.NumRows())
	if err != nil {
		return nil, err
	}
	b, err := e.model.build(sc, res, s.L)
	if err != nil {
		return nil, err
	}
	cache[i] = b
	return b, nil
}

func (w *openWL) check(e *env, sc scope, b *built, x *openCapture) error {
	// Every sample table sits at data generation 1, and a session's
	// version sums the generations of its FROM tables.
	version := uint64(len(b.res.Tables))
	if x.create.N != b.res.N() || x.create.Clusters != b.ix.NumClusters() || x.create.DataVersion != version {
		return fmt.Errorf("session %s has %d groups and %d clusters at version %d, library has %d and %d at %d",
			x.create.Session, x.create.N, x.create.Clusters, x.create.DataVersion, b.res.N(), b.ix.NumClusters(), version)
	}
	if e.tr != nil {
		b.store = nil // a traced op precomputes its own store
	}
	sol, err := e.model.forSource(sc, b, x.source, x.op.k, x.op.d)
	if err != nil {
		return err
	}
	if _, err := checkSolution(b, sol, x.body, false); err != nil {
		return fmt.Errorf("first solution (k=%d, d=%d, %s): %w", x.op.k, x.op.d, x.source, err)
	}
	if b.store == nil {
		if err := e.model.precompute(sc, b); err != nil {
			return err
		}
	}
	if x.ready.StoreIntervals != b.store.StoredIntervals() {
		return fmt.Errorf("ready store holds %d intervals, library store %d", x.ready.StoreIntervals, b.store.StoredIntervals())
	}
	return nil
}

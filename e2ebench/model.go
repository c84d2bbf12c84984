package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"qagview"
	"qagview/internal/lattice"
	"qagview/internal/precompute"
	"qagview/internal/sankey"
	"qagview/internal/summarize"
)

// model is the answer model: each layer's public entry point, called in the
// benchmark's own process over its own copy of the seeded data. The same
// calls give the expected answers and, in a traced run, the per-layer
// spans: one span per call, under the op's "model" span.
type model struct {
	tr *tracer
}

// scope ties the model's spans to one op.
type scope struct{ op, parent int }

// root opens the op's model span; close it with m.tr.end(sc.parent).
func (m *model) root(op int) scope {
	return scope{op: op, parent: m.tr.begin("model", 0, op)}
}

// timed runs fn inside a span named name.
func (m *model) timed(sc scope, name string, fn func() error) error {
	id := m.tr.begin(name, sc.parent, sc.op)
	err := fn()
	m.tr.end(id)
	return err
}

// built is one query's summarization state: the answer set, its cluster
// space for coverage budget L, and (once precomputed) its (k, D) store.
type built struct {
	res   *qagview.Result
	space *lattice.Space
	ix    *lattice.Index
	L     int
	store *precompute.Store
}

// query runs sql through qagview.DB.Query; layer names the span
// (engine.scan or engine.join). It samples input rows per result group.
func (m *model) query(sc scope, db *qagview.DB, sql, layer string, inputRows int) (*qagview.Result, error) {
	var res *qagview.Result
	err := m.timed(sc, layer, func() (err error) {
		res, err = db.Query(sql)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("model query: %w", err)
	}
	if res.N() > 0 {
		m.tr.sample("engine.rows_per_group", float64(inputRows)/float64(res.N()))
	}
	return res, nil
}

// build materializes the cluster space with lattice.NewSpace and
// lattice.BuildIndexStats. The BuildStats phases become child spans laid
// end to end after NewSpace; what they leave uncovered is the build's self
// time.
func (m *model) build(sc scope, res *qagview.Result, L int) (*built, error) {
	id := m.tr.begin("lattice.build", sc.parent, sc.op)
	space, err := lattice.NewSpace(res.GroupBy, res.Rows, res.Vals)
	if err != nil {
		m.tr.end(id)
		return nil, err
	}
	t1 := time.Now()
	ix, st, err := lattice.BuildIndexStats(space, L, true)
	m.tr.end(id)
	if err != nil {
		return nil, err
	}
	if m.tr != nil {
		at := m.tr.since(t1)
		m.tr.add("lattice.new_space", id, sc.op, m.tr.startOf(id), at)
		for _, ph := range []struct {
			name string
			ms   float64
		}{{"lattice.generate", st.GenerateMs}, {"lattice.map", st.MapMs}, {"lattice.assemble", st.AssembleMs}} {
			m.tr.add(ph.name, id, sc.op, at, at+ph.ms)
			at += ph.ms
		}
		m.tr.sample("lattice.clusters", float64(ix.NumClusters()))
	}
	return &built{res: res, space: space, ix: ix, L: L}, nil
}

// hybrid is Summarizer.Summarize(Hybrid): the live answer a session serves
// before its store is ready.
func (m *model) hybrid(sc scope, b *built, k, d int) (*summarize.Solution, error) {
	var sol *summarize.Solution
	err := m.timed(sc, "summarize.hybrid", func() (err error) {
		sol, err = summarize.Run(summarize.AlgoHybrid, b.ix, summarize.Params{K: k, L: b.L, D: d})
		return err
	})
	return sol, err
}

// precompute is Summarizer.Precompute over the session grid, cold.
func (m *model) precompute(sc scope, b *built) error {
	err := m.timed(sc, "precompute.cold", func() (err error) {
		b.store, err = precompute.Run(b.ix, b.L, kMin, kMax, dGrid)
		return err
	})
	if err == nil {
		m.storeSamples(b.store)
	}
	return err
}

// storeSamples records a fresh store's replay pooling, LCA memo use and size.
func (m *model) storeSamples(st *precompute.Store) {
	if m.tr == nil {
		return
	}
	rs := st.ReplayStats()
	if rs.Replays > 0 {
		m.tr.sample("precompute.pool_reuse_ratio", float64(rs.PooledReuses)/float64(rs.Replays))
	}
	if n := rs.LCAMemoHits + rs.LCAMemoMisses; n > 0 {
		m.tr.sample("precompute.lca_hit_ratio", float64(rs.LCAMemoHits)/float64(n))
	}
	m.tr.sample("precompute.store_kb", float64(st.SizeBytes())/1024)
}

// solution is Store.Solution.
func (m *model) solution(sc scope, b *built, k, d int) (*summarize.Solution, error) {
	var sol *summarize.Solution
	err := m.timed(sc, "precompute.solution", func() (err error) {
		sol, err = b.store.Solution(k, d)
		return err
	})
	return sol, err
}

// diff is Summarizer.Compare, the Sankey comparison of two solutions.
func (m *model) diff(sc scope, b *built, left, right *summarize.Solution) (*sankey.Diff, error) {
	var d *sankey.Diff
	err := m.timed(sc, "sankey.diff", func() (err error) {
		d, err = sankey.NewDiff(b.ix, left, right, b.L)
		return err
	})
	return d, err
}

// guidance is Store.Guidance.
func (m *model) guidance(sc scope, b *built) *precompute.Guidance {
	var g *precompute.Guidance
	_ = m.timed(sc, "precompute.guidance", func() error {
		g = b.store.Guidance()
		return nil
	})
	return g
}

// forSource returns the library answer for the source a response names.
func (m *model) forSource(sc scope, b *built, source string, k, d int) (*summarize.Solution, error) {
	switch source {
	case "live":
		return m.hybrid(sc, b, k, d)
	case "store":
		if b.store == nil {
			if err := m.precompute(sc, b); err != nil {
				return nil, err
			}
		}
		return m.solution(sc, b, k, d)
	}
	return nil, fmt.Errorf("unknown answer source %q", source)
}

// ---- response bodies and their checks ----

type clusterBody struct {
	Pattern []string     `json:"pattern"`
	Avg     float64      `json:"avg"`
	Size    int          `json:"size"`
	Members []memberBody `json:"members"`
}

type memberBody struct {
	Rank int      `json:"rank"`
	Row  []string `json:"row"`
	Val  float64  `json:"val"`
}

type solutionBody struct {
	K           int           `json:"k"`
	D           int           `json:"d"`
	Source      string        `json:"source"`
	DataVersion uint64        `json:"data_version"`
	Objective   float64       `json:"objective"`
	Covered     int           `json:"covered"`
	Clusters    []clusterBody `json:"clusters"`
}

type diffBody struct {
	DataVersion uint64 `json:"data_version"`
	From        struct {
		Source string `json:"source"`
	} `json:"from"`
	To struct {
		Source string `json:"source"`
	} `json:"to"`
	Left     []clusterBody `json:"left"`
	Right    []clusterBody `json:"right"`
	Overlap  [][]int       `json:"overlap"`
	LeftTop  []int         `json:"left_top"`
	RightTop []int         `json:"right_top"`
}

type guidanceBody struct {
	KMin        int                  `json:"kmin"`
	KMax        int                  `json:"kmax"`
	DataVersion uint64               `json:"data_version"`
	Series      map[string][]float64 `json:"series"`
	MinSizes    map[string]int       `json:"min_sizes"`
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkClusters compares rendered clusters with a library solution: the
// patterns, the average value bits, the sizes and, when expanded, every
// member's rank, row and value bits.
func checkClusters(b *built, sol *summarize.Solution, got []clusterBody, expand bool) error {
	if len(got) != len(sol.Clusters) {
		return fmt.Errorf("%d clusters, library has %d", len(got), len(sol.Clusters))
	}
	for i, c := range sol.Clusters {
		g := got[i]
		if !slices.Equal(g.Pattern, b.space.Render(c.Pat)) || !sameBits(g.Avg, c.Avg()) || g.Size != c.Size() {
			return fmt.Errorf("cluster %d is %v avg %v size %d, library has %v avg %v size %d",
				i, g.Pattern, g.Avg, g.Size, b.space.Render(c.Pat), c.Avg(), c.Size())
		}
		if !expand {
			continue
		}
		if len(g.Members) != len(c.Cov) {
			return fmt.Errorf("cluster %d lists %d members, library covers %d", i, len(g.Members), len(c.Cov))
		}
		for j, t := range c.Cov {
			mb := g.Members[j]
			if mb.Rank != int(t)+1 || !sameBits(mb.Val, b.space.Vals[t]) || !slices.Equal(mb.Row, b.space.Render(b.space.Tuples[t])) {
				return fmt.Errorf("cluster %d member %d differs from the library", i, j)
			}
		}
	}
	return nil
}

// checkSolution compares a solution body with the library answer: the
// objective bits, the covered count and the clusters.
func checkSolution(b *built, sol *summarize.Solution, body []byte, expand bool) (solutionBody, error) {
	var got solutionBody
	if err := json.Unmarshal(body, &got); err != nil {
		return got, err
	}
	if !sameBits(got.Objective, sol.AvgValue()) || got.Covered != len(sol.Covered) {
		return got, fmt.Errorf("objective %v covering %d, library has %v covering %d",
			got.Objective, got.Covered, sol.AvgValue(), len(sol.Covered))
	}
	return got, checkClusters(b, sol, got.Clusters, expand)
}

// checkDiff compares a diff body with sankey's comparison of the two
// library solutions.
func checkDiff(b *built, left, right *summarize.Solution, d *sankey.Diff, got diffBody) error {
	if err := checkClusters(b, left, got.Left, false); err != nil {
		return fmt.Errorf("left: %w", err)
	}
	if err := checkClusters(b, right, got.Right, false); err != nil {
		return fmt.Errorf("right: %w", err)
	}
	if len(got.Overlap) != len(d.M) {
		return fmt.Errorf("overlap has %d rows, library has %d", len(got.Overlap), len(d.M))
	}
	for i := range d.M {
		if !slices.Equal(got.Overlap[i], d.M[i]) {
			return fmt.Errorf("overlap row %d is %v, library has %v", i, got.Overlap[i], d.M[i])
		}
	}
	if !slices.Equal(got.LeftTop, d.LeftTop) || !slices.Equal(got.RightTop, d.RightTop) {
		return fmt.Errorf("top counts differ from the library")
	}
	return nil
}

// checkGuidance compares a guidance body with Store.Guidance.
func checkGuidance(g *precompute.Guidance, got guidanceBody) error {
	if got.KMin != g.KMin || got.KMax != g.KMax || len(got.Series) != len(g.Series) {
		return fmt.Errorf("guidance grid differs from the library")
	}
	for d, vals := range g.Series {
		key := fmt.Sprint(d)
		gv := got.Series[key]
		if len(gv) != len(vals) || got.MinSizes[key] != g.MinSizes[d] {
			return fmt.Errorf("guidance for D=%d differs from the library", d)
		}
		for i := range vals {
			if !sameBits(gv[i], vals[i]) {
				return fmt.Errorf("guidance D=%d k=%d is %v, library has %v", d, g.KMin+i, gv[i], vals[i])
			}
		}
	}
	return nil
}

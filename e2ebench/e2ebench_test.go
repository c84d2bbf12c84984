package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.1, 1}, {0.95, 10}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of an odd count = %v, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "http.a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "http.b", Start: 25, End: 40},  // overlaps http.a
		{ID: 4, Parent: 1, Name: "http.c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "inner", Start: 12, End: 14},
		{ID: 6, Name: "model", Start: 200, End: 210},
		{ID: 7, Parent: 6, Name: "lattice.build", Start: 200, End: 208},
		{ID: 8, Parent: 7, Name: "lattice.generate", Start: 201, End: 204},
		{ID: 9, Parent: 7, Name: "lattice.map", Start: 204, End: 207},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{
		1: 100 - (30 + 10), // union of [10,40] and [90,100]
		2: 20 - 2,
		3: 15,
		4: 30,
		5: 2,
		6: 2,
		7: 8 - 6,
		8: 3,
	} {
		if math.Abs(self[id]-want) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestServerSelfArithmetic(t *testing.T) {
	e := &env{tr: newTracer()}
	e.tr.spans = []span{
		{ID: 1, Op: 7, Name: "op", Start: 0, End: 10},
		{ID: 2, Op: 7, Parent: 1, Name: "http.GET diff", Start: 1, End: 6, Bytes: 2048},
		{ID: 3, Op: 7, Name: "model", Start: 20, End: 22},
		{ID: 4, Op: 7, Parent: 3, Name: "precompute.solution", Start: 20, End: 20.5},
		{ID: 5, Op: 7, Parent: 3, Name: "precompute.solution", Start: 20.5, End: 21},
		{ID: 6, Op: 7, Parent: 3, Name: "sankey.diff", Start: 21, End: 22},
		{ID: 7, Op: 8, Name: "op", Start: 30, End: 31}, // no model span: not counted
		{ID: 8, Op: 8, Parent: 7, Name: "http.GET solution", Start: 30, End: 31},
	}
	l := e.layers(&exploreWL{}, &outcome{})
	if len(l.serverSelf) != 1 || math.Abs(l.serverSelf[0]-3) > 1e-9 {
		t.Errorf("server self times = %v, want [3] (5 ms request minus 2 ms of layer calls)", l.serverSelf)
	}
	if len(l.remainder) != 2 || percentile(l.remainder, 1) != 5 {
		t.Errorf("op remainders = %v, want 5 and 0", l.remainder)
	}
	if percentile(l.respKB, 1) != 2 {
		t.Errorf("response sizes = %v KiB, want 2 and 0", l.respKB)
	}
}

// layerCalls names, per workload, the per-layer metrics its traced run must
// report above 0: the layers README.md assigns to it whose value cannot be 0
// once the workload has run, so a renamed span or a stats field the program
// stops filling fails the self-test.
var layerCalls = map[string][]string{
	"explore": {"server.self_ms.p50", "server.response_kb.p50", "server.session_builds", "lattice.clusters.p50",
		"precompute.solution_ms.p50", "precompute.guidance_ms.p50", "precompute.store_kb.p50", "sankey.diff_ms.p50"},
	"open": {"server.session_builds", "engine.scan_ms.p50", "engine.rows_per_group", "lattice.build_ms.p50",
		"lattice.generate_ms.p50", "lattice.map_ms.p50", "lattice.assemble_ms.p50", "lattice.clusters.p50",
		"precompute.cold_ms.p50", "precompute.pool_reuse_ratio", "precompute.lca_hit_ratio"},
	"open_join": {"server.session_builds", "engine.join_ms.p50", "engine.rows_per_group", "lattice.build_ms.p50",
		"precompute.cold_ms.p50"},
	"live": {"server.session_builds", "server.session_refreshes", "engine.scan_ms.p50", "relation.append_ms.p50",
		"relation.copied_per_appended_byte", "delta.refresh_ms.p50", "precompute.warm_ms.p50", "wal.append_ms.p50",
		"wal.records_per_fsync", "wal.bytes_per_user_byte", "wal.recover_ms"},
}

// TestTinyRuns runs every workload end to end at a tiny data size, traced
// and untraced, against a qagviewd built from this checkout: every answer
// check must pass, the result must carry exactly the metric names and
// units BENCHMARK.json declares, every end-to-end metric must be above 0,
// and so must the per-layer metrics of the layers each workload calls.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds qagviewd and runs every workload")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark computes %d", len(spec.PerLayer), len(layerMetrics))
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "qagviewd")
	build := exec.Command("go", "build", "-o", bin, "qagview/cmd/qagviewd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building qagviewd: %v\n%s", err, out)
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			opts := options{workload: w, seed: 3, seconds: 1, trace: traced, qagviewd: bin,
				workdir: filepath.Join(dir, "work"), ratings: 5000}
			var out bytes.Buffer
			res, err := run(opts, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %d", w, traced, got, len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, traced, m.Name, v, m.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, v.Value)
				}
			}
			if traced {
				for _, name := range layerCalls[w] {
					if v := res.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s: per-layer metric %s = %v, want > 0", w, name, v)
					}
				}
			}
		}
	}
}

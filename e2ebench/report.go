package main

import (
	"fmt"
	"io"
	"sort"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	value      func(l *layerData) float64
}

// layerData is what the per-layer metrics are computed from: span
// durations and self times by name, per-call samples, and the server's
// counters at the end of the run.
type layerData struct {
	dur        map[string][]float64 // span durations by span name
	self       map[string][]float64 // span self times by span name
	samples    map[string][]float64
	serverSelf []float64 // per op: mirrored requests minus mirrored layer calls
	respKB     []float64 // per mirrored request
	remainder  []float64 // per op: op span minus its request spans
	m          serverMetrics
}

func (l *layerData) p50(span string) float64    { return percentile(l.dur[span], 0.5) }
func (l *layerData) sp50(sample string) float64 { return percentile(l.samples[sample], 0.5) }

func (l *layerData) mean(sample string) float64 {
	xs := l.samples[sample]
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func (l *layerData) wal(f func(appends, fsyncs, bytes int64) float64) float64 {
	if l.m.WAL == nil {
		return 0
	}
	return f(l.m.WAL.Appends, l.m.WAL.Fsyncs, l.m.WAL.Bytes)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics are the per-layer metrics, in BENCHMARK.json order. A layer
// the workload never calls reports 0; README.md names the workload each
// metric belongs to and the end-to-end metric it should move.
var layerMetrics = []layerMetric{
	{"server.self_ms.p50", "ms", func(l *layerData) float64 { return percentile(l.serverSelf, 0.5) }},
	{"server.response_kb.p50", "KiB", func(l *layerData) float64 { return percentile(l.respKB, 0.5) }},
	{"server.session_builds", "count", func(l *layerData) float64 { return float64(l.m.Sessions.Events.Builds) }},
	{"server.session_evictions", "count", func(l *layerData) float64 { return float64(l.m.Sessions.Events.Evictions) }},
	{"server.session_refreshes", "count", func(l *layerData) float64 { return float64(l.m.Sessions.Events.Refreshes) }},
	{"engine.scan_ms.p50", "ms", func(l *layerData) float64 { return l.p50("engine.scan") }},
	{"engine.join_ms.p50", "ms", func(l *layerData) float64 { return l.p50("engine.join") }},
	{"engine.rows_per_group", "rows/group", func(l *layerData) float64 { return l.sp50("engine.rows_per_group") }},
	{"relation.append_ms.p50", "ms", func(l *layerData) float64 { return l.p50("relation.append") }},
	{"relation.copied_per_appended_byte", "B/B", func(l *layerData) float64 { return l.sp50("relation.copied_per_appended_byte") }},
	{"lattice.build_ms.p50", "ms", func(l *layerData) float64 { return l.p50("lattice.build") }},
	{"lattice.generate_ms.p50", "ms", func(l *layerData) float64 { return l.p50("lattice.generate") }},
	{"lattice.map_ms.p50", "ms", func(l *layerData) float64 { return l.p50("lattice.map") }},
	{"lattice.assemble_ms.p50", "ms", func(l *layerData) float64 { return l.p50("lattice.assemble") }},
	{"lattice.clusters.p50", "count", func(l *layerData) float64 { return l.sp50("lattice.clusters") }},
	{"lattice.fast_path_ratio", "ratio", func(l *layerData) float64 { return l.mean("lattice.fast_path") }},
	{"lattice.touched_clusters.p50", "count", func(l *layerData) float64 { return l.sp50("lattice.touched_clusters") }},
	{"delta.refresh_ms.p50", "ms", func(l *layerData) float64 { return l.p50("delta.refresh") }},
	{"summarize.hybrid_ms.p50", "ms", func(l *layerData) float64 { return l.p50("summarize.hybrid") }},
	{"precompute.cold_ms.p50", "ms", func(l *layerData) float64 { return l.p50("precompute.cold") }},
	{"precompute.warm_ms.p50", "ms", func(l *layerData) float64 { return l.p50("precompute.warm") }},
	{"precompute.pool_reuse_ratio", "ratio", func(l *layerData) float64 { return l.mean("precompute.pool_reuse_ratio") }},
	{"precompute.lca_hit_ratio", "ratio", func(l *layerData) float64 { return l.mean("precompute.lca_hit_ratio") }},
	{"precompute.solution_ms.p50", "ms", func(l *layerData) float64 { return l.p50("precompute.solution") }},
	{"precompute.guidance_ms.p50", "ms", func(l *layerData) float64 { return l.p50("precompute.guidance") }},
	{"precompute.store_kb.p50", "KiB", func(l *layerData) float64 { return l.sp50("precompute.store_kb") }},
	{"sankey.diff_ms.p50", "ms", func(l *layerData) float64 { return l.p50("sankey.diff") }},
	{"wal.append_ms.p50", "ms", func(l *layerData) float64 { return l.p50("wal.append") }},
	{"wal.records_per_fsync", "ratio", func(l *layerData) float64 {
		return l.wal(func(a, f, _ int64) float64 { return ratio(float64(a), float64(f)) })
	}},
	{"wal.bytes_per_user_byte", "B/B", func(l *layerData) float64 {
		user := l.mean("wal.user_bytes")
		return l.wal(func(_, _, b int64) float64 { return ratio(float64(b), user) })
	}},
	{"wal.checkpoints", "count", func(l *layerData) float64 {
		if l.m.Recovery == nil {
			return 0
		}
		return float64(l.m.Recovery.Checkpoints)
	}},
	{"wal.recover_ms", "ms", func(l *layerData) float64 { return l.p50("wal.recover") }},
	{"op.remainder_ms.p50", "ms", func(l *layerData) float64 { return percentile(l.remainder, 0.5) }},
}

// layers gathers the traced run's spans into layerData.
func (e *env) layers(w workload, o *outcome) *layerData {
	l := &layerData{dur: map[string][]float64{}, self: map[string][]float64{}, samples: e.tr.samples, m: o.metrics}
	self := selfTimes(e.tr.spans)
	reqs, lays := w.mirrored()
	isReq, isLayer := set(reqs), set(lays)
	reqSum, laySum, modeled := map[int]float64{}, map[int]float64{}, map[int]bool{}
	for _, s := range e.tr.spans {
		l.dur[s.Name] = append(l.dur[s.Name], s.ms())
		l.self[s.Name] = append(l.self[s.Name], self[s.ID])
		switch {
		case s.Name == "op":
			l.remainder = append(l.remainder, self[s.ID])
		case s.Name == "model":
			modeled[s.Op] = true
		case isReq[s.Name]:
			reqSum[s.Op] += s.ms()
			l.respKB = append(l.respKB, float64(s.Bytes)/1024)
		case isLayer[s.Name]:
			laySum[s.Op] += s.ms()
		}
	}
	for op, r := range reqSum {
		if modeled[op] {
			l.serverSelf = append(l.serverSelf, r-laySum[op])
		}
	}
	return l
}

func set(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// perLayer computes the per-layer metrics of a traced run.
func perLayer(l *layerData) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{lm.value(l), lm.unit}
	}
	return out
}

// printSpanTable prints, per span name, the call count and the median
// duration and self time (duration minus what child spans cover). For op
// spans the self time is the op's remainder: client time no request or
// layer span accounts for.
func printSpanTable(out io.Writer, l *layerData) {
	names := make([]string, 0, len(l.dur))
	for n := range l.dur {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "#   %-36s %8s %12s %12s\n", "span", "n", "p50 ms", "p50 self ms")
	for _, n := range names {
		label := n
		if n == "op" {
			label = "op (self = remainder)"
		}
		fmt.Fprintf(out, "#   %-36s %8d %12.4f %12.4f\n", label, len(l.dur[n]), percentile(l.dur[n], 0.5), percentile(l.self[n], 0.5))
	}
}

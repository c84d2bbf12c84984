// Command benchcmp is the CI bench-regression gate: it compares a fresh
// benchmark JSON (as emitted by cmd/benchjson, see `make bench`) against the
// committed baseline and exits non-zero when any tracked benchmark regressed
// by more than the threshold in ns/op or allocs/op.
//
// Usage:
//
//	benchcmp -baseline bench_baseline.json -candidate BENCH_10.json [-threshold 0.30]
//
// Benchmarks present in only one file are reported but never fail the gate
// (benchmarks come and go across PRs); the gate only guards benchmarks both
// sides know about, and prints refresh instructions when the candidate has
// benchmarks the baseline lacks, so new entries don't silently stay
// unguarded. CI boxes are noisy, so the default threshold is deliberately
// loose (30%) — the gate exists to catch algorithmic regressions (a lost
// fast path, an alloc-per-op explosion), not 5% jitter.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// result mirrors cmd/benchjson's per-benchmark measurement object.
type result struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	Runs        int      `json:"runs"`
}

func main() {
	baselinePath := flag.String("baseline", "bench_baseline.json", "committed baseline JSON")
	candidatePath := flag.String("candidate", "BENCH_10.json", "freshly measured JSON (make bench's BENCH_JSON)")
	threshold := flag.Float64("threshold", 0.30, "relative regression that fails the gate (0.30 = +30%)")
	flag.Parse()

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	candidate, err := load(*candidatePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	report, extras, regressed := compare(baseline, candidate, *threshold)
	fmt.Print(report)
	if len(extras) > 0 {
		fmt.Print(refreshNote(extras, *candidatePath, *baselinePath))
	}
	if regressed {
		fmt.Printf(`
benchcmp: FAIL — at least one benchmark regressed more than %.0f%% against %s.
If the regression is intentional (e.g. the benchmark now does more work),
refresh the baseline and commit it with a justification in the PR:

    make bench && cp %s %s

Otherwise, find the hot path you lost: compare the failing benchmark's
profile between this branch and main (go test -bench <name> -cpuprofile).
`, *threshold*100, *baselinePath, *candidatePath, *baselinePath)
		os.Exit(1)
	}
	fmt.Println("benchcmp: OK — no benchmark regressed past the threshold")
}

func load(path string) (map[string]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]result{}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no benchmarks", path)
	}
	return out, nil
}

// compare renders the per-benchmark delta table, lists the candidate-only
// benchmarks (sorted; never a failure), and reports whether any shared
// benchmark regressed past the threshold on ns/op or allocs/op.
func compare(baseline, candidate map[string]result, threshold float64) (string, []string, bool) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	var sb strings.Builder
	regressed := false
	for _, name := range names {
		base := baseline[name]
		cand, ok := candidate[name]
		if !ok {
			fmt.Fprintf(&sb, "~ %-45s only in baseline (renamed or removed?)\n", name)
			continue
		}
		nsBad, nsDelta := exceeds(base.NsPerOp, cand.NsPerOp, threshold)
		line := fmt.Sprintf("%-45s ns/op %12.0f -> %12.0f (%+6.1f%%)", name, base.NsPerOp, cand.NsPerOp, nsDelta*100)
		allocBad := false
		if base.AllocsPerOp != nil && cand.AllocsPerOp != nil {
			var allocDelta float64
			allocBad, allocDelta = exceeds(*base.AllocsPerOp, *cand.AllocsPerOp, threshold)
			// Tiny alloc counts jump across thresholds on harmless noise
			// (e.g. 2 -> 3 allocs is +50%); require a real absolute move too.
			if *cand.AllocsPerOp-*base.AllocsPerOp < 16 {
				allocBad = false
			}
			line += fmt.Sprintf("  allocs/op %9.0f -> %9.0f (%+6.1f%%)", *base.AllocsPerOp, *cand.AllocsPerOp, allocDelta*100)
		}
		if nsBad || allocBad {
			regressed = true
			fmt.Fprintf(&sb, "! %s  REGRESSED\n", line)
		} else {
			fmt.Fprintf(&sb, "  %s\n", line)
		}
	}
	extras := make([]string, 0)
	for name := range candidate {
		if _, ok := baseline[name]; !ok {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		fmt.Fprintf(&sb, "+ %-45s new benchmark (not in baseline)\n", name)
	}
	return sb.String(), extras, regressed
}

// refreshNote explains how to bring candidate-only benchmarks under the
// gate. Informational only: new benchmarks never fail the run.
func refreshNote(extras []string, candidatePath, baselinePath string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `
benchcmp: note — %d benchmark(s) are not in the baseline and are NOT yet
guarded by the regression gate: %s.
To start tracking them, refresh the baseline from a trusted CI run of this
branch (same runner class as the gate) and commit it:

    make bench && cp %s %s
`, len(extras), strings.Join(extras, ", "), candidatePath, baselinePath)
	return sb.String()
}

// exceeds reports whether cand regressed past the threshold relative to
// base, and the relative delta.
func exceeds(base, cand, threshold float64) (bool, float64) {
	if base <= 0 {
		return false, 0
	}
	delta := (cand - base) / base
	return delta > threshold, delta
}

package delta

import (
	"context"
	"fmt"
	"strconv"

	"qagview/internal/lattice"
	"qagview/internal/obs"
	"qagview/internal/precompute"
	"qagview/internal/summarize"
)

// Maintainer owns the mutable spine of one live exploration context: the
// current cluster index, the warm sweeper chained across data generations,
// and the monotonically increasing generation counter that versions both.
//
// A refresh installs the successor index and leaves the sweeper where it
// was: warming it onto the new index (the Fixed-Order phase, about as
// costly as a rebase) is deferred to the next Precompute, which a serving
// layer runs in the background, so the answer after a refresh does not
// wait for it. Refreshes in between accumulate into one warm.
//
// A Maintainer is single-writer: Refresh, Apply, and Precompute must be
// serialized by the caller (serving layers do this with a per-session
// refresh lock), and an in-flight Precompute must have returned — after its
// context was cancelled, if need be — before the next Refresh runs, because
// the sweeper Precompute warms and runs is the maintainer's own.
// Indexes published through Index() are immutable snapshots and may be read
// concurrently with anything.
type Maintainer struct {
	gen     uint64
	ix      *lattice.Index
	sw      *summarize.Sweeper
	sumOpts []summarize.Option

	// stale reports that sw still serves an older index; idsPreserved that
	// every refresh since kept cluster ids (DeltaStats.FastPath each time),
	// so the warm may keep LCA memos.
	stale        bool
	idsPreserved bool
}

// New wraps an already built index at generation 1. Summarize options are
// applied to every sweeper the maintainer constructs (the warm chain carries
// them forward automatically).
func New(ix *lattice.Index, sumOpts ...summarize.Option) *Maintainer {
	return &Maintainer{gen: 1, ix: ix, sumOpts: sumOpts}
}

// Generation returns the current data generation: 1 for the freshly built
// index, bumped by every refresh that changed anything.
func (m *Maintainer) Generation() uint64 { return m.gen }

// Index returns the current-generation index (an immutable snapshot).
func (m *Maintainer) Index() *lattice.Index { return m.ix }

// Refresh reconciles the maintainer with a re-run query result: the rows are
// ranked (stable by descending value, as NewSpace would) and applied through
// the incremental Rebase, bumping the generation when anything changed.
// changed is false (and the generation unchanged) when the result is
// identical to the current answer set.
func (m *Maintainer) Refresh(rows [][]string, vals []float64) (lattice.DeltaStats, bool, error) {
	return m.RefreshCtx(context.Background(), rows, vals)
}

// RefreshCtx is Refresh under a caller context, so traced requests (see
// internal/obs) record the rebase as a span. The context carries
// observability only — refreshes are not cancellable midway.
func (m *Maintainer) RefreshCtx(ctx context.Context, rows [][]string, vals []float64) (lattice.DeltaStats, bool, error) {
	ctx, sp := obs.StartSpan(ctx, "delta.refresh")
	defer sp.End()
	rows, vals = sortResult(rows, vals)
	_, rsp := obs.StartSpan(ctx, "delta.rebase")
	nix, stats, err := m.ix.Rebase(rows, vals)
	rsp.End()
	if err != nil {
		return stats, false, err
	}
	changed := nix != m.ix
	sp.SetAttr("changed", strconv.FormatBool(changed))
	if changed {
		m.install(nix, stats)
	}
	return stats, changed, nil
}

// Apply applies a prebuilt batch of appends and deletes (callers that know
// their delta exactly, without re-running a query). Empty batches are
// no-ops.
func (m *Maintainer) Apply(d lattice.Delta) (lattice.DeltaStats, error) {
	if d.Empty() {
		return lattice.DeltaStats{FastPath: true}, nil
	}
	nix, stats, err := m.ix.ApplyDelta(d)
	if err != nil {
		return stats, err
	}
	m.install(nix, stats)
	return stats, nil
}

// install publishes the successor index and bumps the generation. The
// sweeper, if any, now serves an older index; Precompute warms it.
func (m *Maintainer) install(nix *lattice.Index, stats lattice.DeltaStats) {
	if m.sw != nil {
		if !m.stale {
			m.stale, m.idsPreserved = true, true
		}
		m.idsPreserved = m.idsPreserved && stats.FastPath
	}
	m.ix = nix
	m.gen++
}

// Precompute builds a (k, D) store over the current index, stamped with the
// current generation. The underlying sweeper is created on first use and
// warm-started across generations after that: a sweeper left behind by
// refreshes is first warmed onto the current index, once for all the
// refreshes since it last ran. A kMax beyond what the chain was provisioned
// for re-provisions it cold. The warm and the cold start run under
// "delta.warm" and "summarize.sweeper" spans of the context the options
// attach, each with its Fixed-Order phase's evaluation counts. Precompute
// options (context, parallelism) pass through; the generation stamp is set
// by the maintainer.
func (m *Maintainer) Precompute(kMin, kMax int, ds []int, opts ...precompute.Option) (*precompute.Store, error) {
	if kMax < 1 {
		return nil, fmt.Errorf("delta: kMax = %d, want >= 1", kMax)
	}
	ctx := precompute.ContextOf(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if m.sw != nil && m.stale && m.sw.KMax() >= kMax {
		_, wsp := obs.StartSpan(ctx, "delta.warm")
		sw, err := m.sw.Warm(m.ix, m.idsPreserved)
		endPhase(wsp, sw)
		// A failed warm leaves the old sweeper's state half-migrated; drop
		// it and cold-start below.
		m.sw = sw
		if err != nil {
			m.sw = nil
		}
	}
	if m.sw == nil || m.sw.KMax() < kMax {
		_, ssp := obs.StartSpan(ctx, "summarize.sweeper")
		sw, err := summarize.NewSweeper(m.ix, m.ix.L, kMax, m.sumOpts...)
		endPhase(ssp, sw)
		if err != nil {
			return nil, err
		}
		m.sw = sw
	}
	m.stale = false
	// The maintainer's stamp goes first so an explicit caller-provided
	// WithGeneration (a serving layer with its own version numbering) wins.
	opts = append([]precompute.Option{precompute.WithGeneration(m.gen)}, opts...)
	return precompute.RunSweeper(m.sw, kMin, kMax, ds, opts...)
}

// endPhase ends sp, recording the evaluation counts of the Fixed-Order
// phase that built sw, if it built one.
func endPhase(sp *obs.Span, sw *summarize.Sweeper) {
	if sw != nil {
		st := sw.PhaseStats()
		sp.SetInt("full_evals", int64(st.FullEvals))
		sp.SetInt("delta_evals", int64(st.DeltaEvals))
	}
	sp.End()
}

package delta

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qagview/internal/lattice"
	"qagview/internal/pattern"
	"qagview/internal/precompute"
)

// histStep is one step of a maintainer history: a batch for Apply, or a
// replacement result for Refresh (refresh set), derived from the current
// ranking. The wants pin what the step exercises.
type histStep struct {
	name    string
	refresh bool
	make    func(h *history) (lattice.Delta, [][]string, []float64)
	// wantFast and wantRepacked are checked when set; unchanged marks the
	// step whose result equals the current answer set.
	wantFast, wantRepacked *bool
	unchanged              bool
}

// history is the state a step is derived from: the current ranking, L,
// and the seeded source of fresh rows.
type history struct {
	rng  *rand.Rand
	L    int
	rows [][]string
	vals []float64
	dict [][]string // every value each attribute has taken
}

// freshRow draws a row over the values seen so far that the current answer
// set does not hold; attr >= 0 gets the new value v instead of a drawn one.
func (h *history) freshRow(attr int, v string) []string {
	for {
		row := make([]string, len(h.dict))
		for j, d := range h.dict {
			row[j] = d[h.rng.Intn(len(d))]
		}
		if attr >= 0 {
			row[attr] = v
		}
		if !slices.ContainsFunc(h.rows, func(r []string) bool { return slices.Equal(r, row) }) {
			return row
		}
	}
}

// below returns a value ranking strictly below rank L-1.
func (h *history) below(off int) float64 { return h.vals[h.L-1] - 1 - float64(off)/4 }

func ptr(b bool) *bool { return &b }

// TestMaintainerHistory drives one maintainer through seeded histories that
// mix both entry points: Apply batches (appends and deletes below and
// inside the top L, brand-new values, a codec-field overflow) and Refresh
// calls (a value change inside the top L that keeps the order, a reshuffled
// tie block, an appended leader, an identical result). After every step:
// the index equals NewSpace + BuildIndex over the same ranking; a refresh
// reports a change exactly when the rendered rows or value bits differ;
// FastPath is exactly "the first L rendered rows and value bits are
// unchanged"; the successor regenerates exactly when that fails or the key
// layout of its dictionaries differs; and a Precompute over the warmed
// sweeper equals a cold one.
func TestMaintainerHistory(t *testing.T) {
	steps := []histStep{
		{name: "apply below L", wantFast: ptr(true), wantRepacked: ptr(false),
			make: func(h *history) (lattice.Delta, [][]string, []float64) {
				d := lattice.Delta{DeleteRanks: []int{h.L + 1, len(h.rows) - 1}}
				for i := 0; i < 3; i++ {
					d.AppendRows = append(d.AppendRows, h.freshRow(-1, ""))
					d.AppendVals = append(d.AppendVals, h.below(i))
				}
				return d, nil, nil
			}},
		{name: "refresh a value inside the top L", refresh: true, wantFast: ptr(false),
			make: func(h *history) (lattice.Delta, [][]string, []float64) {
				vals := slices.Clone(h.vals)
				for r := h.L - 1; r > 0; r-- {
					if vals[r-1] > vals[r] {
						vals[r] = math.Nextafter(vals[r], vals[r-1]) // keeps the order
						return lattice.Delta{}, h.rows, vals
					}
				}
				panic("fixture: the top L is one tie block")
			}},
		{name: "apply inside the top L", wantFast: ptr(false),
			make: func(h *history) (lattice.Delta, [][]string, []float64) {
				return lattice.Delta{
					DeleteRanks: []int{0, h.L / 2},
					AppendRows:  [][]string{h.freshRow(-1, ""), h.freshRow(-1, "")},
					AppendVals:  []float64{h.vals[h.L/3], h.below(0)},
				}, nil, nil
			}},
		{name: "refresh a reshuffled tie block", refresh: true,
			make: func(h *history) (lattice.Delta, [][]string, []float64) {
				rows := slices.Clone(h.rows)
				for i := 0; i+1 < len(rows); i++ {
					j := i
					for j+1 < len(rows) && h.vals[j+1] == h.vals[i] {
						j++
					}
					if j > i {
						slices.Reverse(rows[i : j+1])
						return lattice.Delta{}, rows, h.vals
					}
				}
				panic("fixture: no tie block")
			}},
		{name: "apply brand-new values", wantFast: ptr(true), wantRepacked: ptr(false),
			make: func(h *history) (lattice.Delta, [][]string, []float64) {
				return lattice.Delta{
					AppendRows: [][]string{h.freshRow(1, "new1"), h.freshRow(2, "new2")},
					AppendVals: []float64{h.below(1), h.below(2)},
				}, nil, nil
			}},
		{name: "refresh with an appended leader", refresh: true, wantFast: ptr(false),
			make: func(h *history) (lattice.Delta, [][]string, []float64) {
				rows := append([][]string{h.freshRow(-1, "")}, h.rows...)
				vals := append([]float64{h.vals[0] + 1}, h.vals...)
				return lattice.Delta{}, rows, vals
			}},
		{name: "apply a codec-field overflow", wantFast: ptr(true), wantRepacked: ptr(true),
			make: func(h *history) (lattice.Delta, [][]string, []float64) {
				return lattice.Delta{
					AppendRows:  [][]string{h.freshRow(0, "overflow0")},
					AppendVals:  []float64{h.below(0)},
					DeleteRanks: []int{h.L + 2},
				}, nil, nil
			}},
		{name: "refresh an identical result", refresh: true, unchanged: true,
			make: func(h *history) (lattice.Delta, [][]string, []float64) {
				return lattice.Delta{}, h.rows, h.vals
			}},
		{name: "refresh a value below the top L", refresh: true, wantFast: ptr(true), wantRepacked: ptr(false),
			make: func(h *history) (lattice.Delta, [][]string, []float64) {
				vals := slices.Clone(h.vals)
				r := len(vals) - 1
				vals[r] = math.Nextafter(vals[r], math.Inf(-1))
				return lattice.Delta{}, h.rows, vals
			}},
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runHistory(t, seed, steps)
		})
	}
}

// runHistory runs the steps on one maintainer over a seeded answer set,
// checking each against a cold rebuild of the ranking it asked for.
func runHistory(t *testing.T, seed int64, steps []histStep) {
	const n, L, kMax = 60, 15, 6
	ds := []int{1, 2}
	// Attribute 0 fills its 2-bit key field (3 values); attributes 1 and 2
	// leave room in theirs.
	doms := []int{3, 5, 4, 4}
	h := &history{rng: rand.New(rand.NewSource(seed)), L: L, dict: make([][]string, len(doms))}
	for j, d := range doms {
		for v := 0; v < d; v++ {
			h.dict[j] = append(h.dict[j], fmt.Sprintf("v%d_%d", j, v))
		}
	}
	for len(h.rows) < n {
		h.rows = append(h.rows, h.freshRow(-1, ""))
		h.vals = append(h.vals, float64(h.rng.Intn(40))/4) // quarter steps: ties
	}
	attrs := attrNames(len(doms))
	mt := New(buildIndex(t, attrs, h.rows, h.vals, L))
	follow := func(ix *lattice.Index) {
		h.rows, h.vals = renderRows(ix.Space), ix.Space.Vals
	}
	follow(mt.Index())
	for _, st := range steps {
		prev, gen := mt.Index(), mt.Generation()
		d, rows, vals := st.make(h)
		var stats lattice.DeltaStats
		changed := true
		var err error
		if st.refresh {
			stats, changed, err = mt.Refresh(rows, vals)
		} else {
			stats, err = mt.Apply(d)
			rows, vals = applyRows(h.rows, h.vals, d)
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for _, r := range d.AppendRows {
			for j, v := range r {
				if !slices.Contains(h.dict[j], v) {
					h.dict[j] = append(h.dict[j], v)
				}
			}
		}
		cold := buildIndex(t, attrs, rows, vals, L)
		ix := mt.Index()
		assertIndexEqual(t, st.name, ix, cold)

		same := sameRanks(prev.Space, cold.Space, max(prev.Space.N(), cold.Space.N()))
		if changed == same || changed != (ix != prev) || changed != (mt.Generation() == gen+1) {
			t.Fatalf("%s: changed=%v, new index %v, generation %d -> %d; the ranking is unchanged: %v",
				st.name, changed, ix != prev, gen, mt.Generation(), same)
		}
		if changed == st.unchanged {
			t.Fatalf("%s: changed=%v", st.name, changed)
		}
		if changed {
			fast := sameRanks(prev.Space, cold.Space, L)
			repack := !fast || !pattern.NewCodec(cards(prev.Space)).SameLayout(pattern.NewCodec(cards(ix.Space)))
			touched := 0
			if repack {
				touched = ix.NumClusters()
			}
			if stats.FastPath != fast || stats.Repacked != repack || stats.TouchedClusters != touched {
				t.Fatalf("%s: %+v; want fast path %v, repacked %v, %d touched clusters", st.name, stats, fast, repack, touched)
			}
			if st.wantFast != nil && *st.wantFast != fast || st.wantRepacked != nil && *st.wantRepacked != repack {
				t.Fatalf("%s: fixture: fast path %v, repacked %v", st.name, fast, repack)
			}
		}

		warm, err := mt.Precompute(1, kMax, ds)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		coldStore, err := precompute.Run(cold, L, 1, kMax, ds)
		if err != nil {
			t.Fatal(err)
		}
		assertStoresEqual(t, st.name, warm, coldStore, ix.Space, cold.Space)
		follow(ix)
	}
}

// applyRows mirrors a Delta on a rendered ranking: kept rows in order, then
// the appended rows, which NewSpace's stable sort places.
func applyRows(rows [][]string, vals []float64, d lattice.Delta) ([][]string, []float64) {
	var outRows [][]string
	var outVals []float64
	for i := range rows {
		if !slices.Contains(d.DeleteRanks, i) {
			outRows = append(outRows, rows[i])
			outVals = append(outVals, vals[i])
		}
	}
	return append(outRows, d.AppendRows...), append(outVals, d.AppendVals...)
}

// renderRows renders a space's ranking.
func renderRows(s *lattice.Space) [][]string {
	rows := make([][]string, s.N())
	for i, tup := range s.Tuples {
		rows[i] = s.Render(tup)
	}
	return rows
}

// sameRanks reports whether ranks 0..n-1 of a and b exist and hold the same
// rendered rows with the same value bits.
func sameRanks(a, b *lattice.Space, n int) bool {
	if a.N() < n || b.N() < n {
		return false
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) ||
			!reflect.DeepEqual(a.Render(a.Tuples[i]), b.Render(b.Tuples[i])) {
			return false
		}
	}
	return true
}

// cards lists a space's dictionary cardinalities, which fix its key layout.
func cards(s *lattice.Space) []int {
	out := make([]int, s.M())
	for j, d := range s.Dicts {
		out[j] = d.Len()
	}
	return out
}

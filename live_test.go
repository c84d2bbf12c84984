package qagview_test

import (
	"math"
	"testing"

	"qagview"
)

// TestLiveFacade drives the public live-table surface end to end: build a
// summarizer, wrap it in a Live, apply a batch, refresh from a re-run query
// result, and check data versioning on the precomputed stores — with every
// generation's output equal to a cold rebuild over the same rows.
func TestLiveFacade(t *testing.T) {
	attrs := []string{"x", "y"}
	rows := [][]string{
		{"a", "p"}, {"b", "p"}, {"a", "q"}, {"b", "q"}, {"c", "p"}, {"c", "q"},
	}
	vals := []float64{9, 8, 7, 6, 5, 4}
	sum, err := qagview.NewSummarizerFromRows(attrs, rows, vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	live := qagview.NewLive(sum)
	if live.DataVersion() != 1 {
		t.Fatalf("fresh data version %d", live.DataVersion())
	}
	st, err := live.Precompute(1, 3, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 1 {
		t.Fatalf("store generation %d, want 1", st.Generation())
	}

	// Batch append below the top L plus one delete.
	stats, err := live.ApplyDelta(qagview.DeltaBatch{
		AppendRows:  [][]string{{"d", "p"}},
		AppendVals:  []float64{1},
		DeleteRanks: []int{5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FastPath {
		t.Fatalf("batch stats %+v", stats)
	}
	if live.DataVersion() != 2 || live.Summarizer().N() != 6 {
		t.Fatalf("after batch: version %d, n %d", live.DataVersion(), live.Summarizer().N())
	}

	// Refresh from a "re-run query": crown a new leader (top-L churn) and
	// change one value.
	res := &qagview.Result{
		GroupBy: attrs,
		Rows: [][]string{
			{"e", "q"}, {"a", "p"}, {"b", "p"}, {"a", "q"}, {"b", "q"}, {"c", "p"}, {"d", "p"},
		},
		Vals: []float64{11, 9, 8, 7, 6, 5.5, 1},
	}
	stats, changed, err := live.Refresh(res)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || stats.FastPath {
		t.Fatalf("leader refresh: changed=%v stats=%+v", changed, stats)
	}
	if live.DataVersion() != 3 {
		t.Fatalf("version after refresh %d", live.DataVersion())
	}
	st, err = live.Precompute(1, 3, []int{1}, qagview.WithStoreGeneration(99))
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 99 {
		t.Fatalf("explicit store generation %d, want 99", st.Generation())
	}

	// The maintained state must match a cold build over the same result.
	cold, err := qagview.NewSummarizer(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	coldStore, err := cold.Precompute(1, 3, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		warmSol, werr := st.Solution(k, 1)
		coldSol, cerr := coldStore.Solution(k, 1)
		if (werr == nil) != (cerr == nil) {
			t.Fatalf("k=%d: error mismatch %v vs %v", k, werr, cerr)
		}
		if werr != nil {
			continue
		}
		if math.Float64bits(warmSol.AvgValue()) != math.Float64bits(coldSol.AvgValue()) {
			t.Fatalf("k=%d: objective %v vs %v", k, warmSol.AvgValue(), coldSol.AvgValue())
		}
		wr := live.Summarizer().Format(warmSol, true)
		cr := cold.Format(coldSol, true)
		if wr != cr {
			t.Fatalf("k=%d rendered solutions differ:\n%s\nvs\n%s", k, wr, cr)
		}
	}

	// An unchanged refresh is a no-op.
	if _, changed, err := live.Refresh(res); err != nil || changed {
		t.Fatalf("no-op refresh: changed=%v err=%v", changed, err)
	}
	if live.DataVersion() != 3 {
		t.Fatalf("no-op refresh bumped the version to %d", live.DataVersion())
	}
}

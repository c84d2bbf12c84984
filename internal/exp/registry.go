package exp

import (
	"fmt"
	"sort"
)

// Experiment is one registered table/figure regenerator.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Env) ([]Table, error)
}

// Registry lists every experiment, keyed by the paper's figure/table ids.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "Running example: ranking, clusters, expansion (Figures 1a-1c)", Fig1},
		{"fig2", "Parameter-selection guidance series (Figure 2)", Fig2},
		{"fig5", "Brute force vs heuristics (Figures 5a/5b)", Fig5},
		{"fig6k", "Effect of size parameter k (Figures 6a/6b)", Fig6K},
		{"fig6l", "Effect of coverage parameter L (Figures 6c/6d)", Fig6L},
		{"fig6d", "Effect of distance parameter D (Figures 6e/6f)", Fig6D},
		{"fig6m", "Effect of attribute count m (Figures 6g/6h)", Fig6M},
		{"fig7k", "Precompute cost vs k (Figure 7a)", Fig7K},
		{"fig7runs", "Single vs precompute over six runs (Figure 7b)", Fig7Runs},
		{"fig7l", "Single vs precompute vs L (Figures 7c/7d)", Fig7L},
		{"fig7n", "Single vs precompute vs N (Figures 7e/7f)", Fig7N},
		{"fig7par", "Parallel precompute scaling over the (k, D) grid", Fig7Par},
		{"figscale", "Cluster-space build throughput vs N", FigScale},
		{"fig8a", "Cluster generation/mapping ablation (Figure 8a)", Fig8A},
		{"fig8b", "Delta-Judgment ablation (Figure 8b)", Fig8B},
		{"fig9", "TPC-DS scalability (Figures 9a/9b)", Fig9},
		{"table1", "Simulated user study (Tables 1/2)", Table1},
		{"fig16", "Comparison-view placement quality (Figures 16a/16b)", Fig16},
		{"a5", "Qualitative baseline comparison (Appendix A.5)", AppendixA5},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, x := range Registry() {
		if x.ID == id {
			return x, nil
		}
	}
	ids := make([]string, 0)
	for _, x := range Registry() {
		ids = append(ids, x.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, ids)
}

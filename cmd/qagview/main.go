// Command qagview runs an aggregate query over a dataset and prints its
// cluster summary — the CLI face of the paper's two-layer output.
//
// Usage examples:
//
//	qagview -data movielens -k 4 -l 8 -d 2 -expand
//	qagview -data tpcds -sql "SELECT cd_gender, i_category, avg(net_profit) AS val FROM store_sales GROUP BY cd_gender, i_category ORDER BY val DESC" -k 5 -l 10 -d 1
//	qagview -data data.csv -table sales -sql "..." -k 4 -l 8 -d 2
//	qagview -data movielens -guide -kmax 12 -dlist 1,2,3
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"qagview"
	"qagview/internal/movielens"
	"qagview/internal/tpcds"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qagview:", err)
		os.Exit(1)
	}
}

func run() error {
	data := flag.String("data", "movielens", "dataset: movielens, tpcds, or a CSV file path")
	table := flag.String("table", "", "table name for CSV input (default: file base name)")
	sqlQ := flag.String("sql", "", "aggregate query (default: a dataset-specific example)")
	k := flag.Int("k", 4, "maximum number of clusters")
	l := flag.Int("l", 8, "coverage: top-L answers must be covered")
	d := flag.Int("d", 2, "diversity: minimum pairwise cluster distance")
	algo := flag.String("algo", string(qagview.Hybrid), "algorithm: bottom-up, fixed-order, hybrid, brute-force, ...")
	expand := flag.Bool("expand", false, "show the second layer (covered answers per cluster)")
	guide := flag.Bool("guide", false, "print the parameter-selection guidance series instead of one solution")
	kmax := flag.Int("kmax", 12, "guidance: maximum k")
	dlist := flag.String("dlist", "1,2,3", "guidance: comma-separated D values")
	par := flag.Int("par", 0, "guidance: precompute worker count (0 = GOMAXPROCS)")
	flag.Parse()

	db := qagview.NewDB()
	defaultSQL := ""
	switch *data {
	case "movielens":
		rel, err := movielens.Generate(movielens.DefaultConfig())
		if err != nil {
			return err
		}
		if err := db.Register(rel); err != nil {
			return err
		}
		defaultSQL, err = movielens.Query(4, 50, "genre_adventure = 1")
		if err != nil {
			return err
		}
	case "tpcds":
		rel, err := tpcds.Generate(tpcds.DefaultConfig())
		if err != nil {
			return err
		}
		if err := db.Register(rel); err != nil {
			return err
		}
		defaultSQL, err = tpcds.Query(4, 100)
		if err != nil {
			return err
		}
	default:
		f, err := os.Open(*data)
		if err != nil {
			return err
		}
		defer f.Close()
		name := *table
		if name == "" {
			name = strings.TrimSuffix(filepath.Base(*data), filepath.Ext(*data))
		}
		rel, err := qagview.ReadCSV(f, name, nil)
		if err != nil {
			return err
		}
		if err := db.Register(rel); err != nil {
			return err
		}
	}
	sql := *sqlQ
	if sql == "" {
		sql = defaultSQL
	}
	if sql == "" {
		return fmt.Errorf("-sql is required for CSV input")
	}

	res, err := db.Query(sql)
	if err != nil {
		return err
	}
	if res.N() == 0 {
		return fmt.Errorf("query returned no groups")
	}
	fmt.Printf("query returned %d ranked groups over %v\n\n", res.N(), res.GroupBy)

	coverage := *l
	if coverage > res.N() {
		coverage = res.N()
	}
	s, err := qagview.NewSummarizer(res, coverage)
	if err != nil {
		return err
	}

	if *guide {
		var ds []int
		for _, part := range strings.Split(*dlist, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -dlist: %w", err)
			}
			ds = append(ds, v)
		}
		km := *kmax
		var popts []qagview.PrecomputeOption
		if *par > 0 {
			popts = append(popts, qagview.Parallelism(*par))
		}
		store, err := s.Precompute(1, km, ds, popts...)
		if err != nil {
			return err
		}
		g := store.Guidance()
		fmt.Printf("guidance (avg value of solution), L=%d:\n", coverage)
		fmt.Printf("%-4s", "D\\k")
		for kk := g.KMin; kk <= g.KMax; kk++ {
			fmt.Printf(" %7d", kk)
		}
		fmt.Println()
		for _, dd := range ds {
			fmt.Printf("%-4d", dd)
			for i, v := range g.Series[dd] {
				if !g.Stored(dd, g.KMin+i) {
					fmt.Printf(" %7s", "-")
					continue
				}
				fmt.Printf(" %7.3f", v)
			}
			fmt.Println()
		}
		return nil
	}

	p := qagview.Params{K: *k, L: coverage, D: *d}
	sol, err := s.Summarize(qagview.Algorithm(*algo), p)
	if err != nil {
		return err
	}
	if err := s.Validate(p, sol); err != nil {
		return fmt.Errorf("internal error: infeasible solution: %w", err)
	}
	fmt.Printf("%d clusters, objective (avg value of covered answers) = %.4f, covering %d answers\n\n",
		sol.Size(), sol.AvgValue(), len(sol.Covered))
	fmt.Print(s.Format(sol, *expand))
	return nil
}

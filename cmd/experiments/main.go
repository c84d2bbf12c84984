// Command experiments regenerates every table and figure of the paper's
// evaluation over the synthetic datasets. With no arguments it runs the full
// registry; otherwise it runs the named experiments.
//
// Usage:
//
//	experiments [-scale small|paper] [-list] [id ...]
//
// Experiment ids follow the paper's numbering: fig1 fig2 fig5 fig6k fig6l
// fig6d fig6m fig7k fig7runs fig7l fig7n fig7par figscale fig8a fig8b fig9
// table1 fig16 a5.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"qagview/internal/exp"
)

func main() {
	scale := flag.String("scale", "paper", "dataset scale: small (fast) or paper (MovieLens-100K sized)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	par := flag.Int("par", 1, "precompute worker count (1 = the paper's sequential timings, 0 = GOMAXPROCS)")
	flag.Parse()

	if *list {
		for _, x := range exp.Registry() {
			fmt.Printf("%-10s %s\n", x.ID, x.Title)
		}
		return
	}

	var env *exp.Env
	var err error
	switch *scale {
	case "small":
		env, err = exp.NewSmallEnv()
	case "paper":
		env, err = exp.NewDefaultEnv()
	default:
		err = fmt.Errorf("unknown scale %q", *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	env.Parallelism = *par

	ids := flag.Args()
	var selected []exp.Experiment
	if len(ids) == 0 {
		selected = exp.Registry()
	} else {
		for _, id := range ids {
			x, err := exp.Find(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			selected = append(selected, x)
		}
	}

	for _, x := range selected {
		t0 := time.Now()
		tables, err := x.Run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", x.ID, err)
			os.Exit(1)
		}
		fmt.Printf("### %s — %s (took %v)\n\n", x.ID, x.Title, time.Since(t0).Round(time.Millisecond))
		for _, tb := range tables {
			fmt.Println(tb.Format())
		}
	}
}

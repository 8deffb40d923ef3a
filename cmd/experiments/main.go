// Command experiments regenerates the paper's tables and figures over the
// synthetic workloads. Each -run target corresponds to one table/figure of
// the evaluation (Section VIII); see DESIGN.md for the experiment index
// and perfbench/README.md for recorded figures.
//
// Usage:
//
//	experiments -run all
//	experiments -run tableI -sites 12 -lubm 10
//	experiments -run fig12 -yago 1 -btc 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gstored/internal/exp"
	"gstored/internal/workload"
)

func main() {
	var (
		run   = flag.String("run", "all", "experiment: tableI, tableII, tableIII, tableIV, fig9, fig10, fig11, fig12, or all")
		sites = flag.Int("sites", exp.DefaultSites, "number of simulated sites")
		lubm  = flag.Int("lubm", 8, "LUBM scale (universities)")
		yago  = flag.Int("yago", 1, "YAGO2 scale")
		btc   = flag.Int("btc", 1, "BTC scale")
	)
	flag.Parse()

	lubmDS := func() *workload.Dataset { return workload.NewLUBM(workload.LUBMConfig{Universities: *lubm}) }
	yagoDS := func() *workload.Dataset { return workload.NewYAGO(workload.YAGOConfig{Scale: *yago}) }
	btcDS := func() *workload.Dataset { return workload.NewBTC(workload.BTCConfig{Scale: *btc}) }

	targets := map[string]func() error{
		"tableI": func() error {
			t, err := exp.RunStageTable(lubmDS(), *sites)
			if err != nil {
				return err
			}
			fmt.Println("=== Table I ===")
			fmt.Println(t.Render())
			return nil
		},
		"tableII": func() error {
			t, err := exp.RunStageTable(yagoDS(), *sites)
			if err != nil {
				return err
			}
			fmt.Println("=== Table II ===")
			fmt.Println(t.Render())
			return nil
		},
		"tableIII": func() error {
			t, err := exp.RunStageTable(btcDS(), *sites)
			if err != nil {
				return err
			}
			fmt.Println("=== Table III ===")
			fmt.Println(t.Render())
			return nil
		},
		"tableIV": func() error {
			fmt.Println("=== Table IV ===")
			for _, ds := range []*workload.Dataset{yagoDS(), lubmDS()} {
				p, err := exp.RunPartitionings(ds, *sites)
				if err != nil {
					return err
				}
				fmt.Println(p.RenderCosts())
			}
			return nil
		},
		"fig9": func() error {
			fmt.Println("=== Fig. 9 ===")
			for _, ds := range []*workload.Dataset{lubmDS(), yagoDS()} {
				a, err := exp.RunAblation(ds, *sites)
				if err != nil {
					return err
				}
				fmt.Println(a.Render())
			}
			return nil
		},
		"fig10": func() error {
			fmt.Println("=== Fig. 10 ===")
			for _, ds := range []*workload.Dataset{lubmDS(), yagoDS()} {
				p, err := exp.RunPartitionings(ds, *sites)
				if err != nil {
					return err
				}
				fmt.Println(p.Render())
			}
			return nil
		},
		"fig11": func() error {
			s, err := exp.RunScalability([]int{*lubm, *lubm * 2, *lubm * 4}, *sites)
			if err != nil {
				return err
			}
			fmt.Println("=== Fig. 11 ===")
			fmt.Println(s.Render())
			return nil
		},
		"fig12": func() error {
			fmt.Println("=== Fig. 12 ===")
			for _, ds := range []*workload.Dataset{yagoDS(), lubmDS(), btcDS()} {
				c, err := exp.RunComparison(ds, *sites)
				if err != nil {
					return err
				}
				fmt.Println(c.Render())
			}
			return nil
		},
	}
	order := []string{"tableI", "tableII", "tableIII", "tableIV", "fig9", "fig10", "fig11", "fig12"}

	var selected []string
	if *run == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*run, ",") {
			if _, ok := targets[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s, all)\n", name, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}
	for _, name := range selected {
		if err := targets[name](); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// Command reversecloak-bench regenerates every evaluation artifact: the
// experiment tables listed by bench.Experiments (see the internal/bench
// row of docs/ARCHITECTURE.md), over the deterministic synthetic Atlanta
// workload.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/reversecloak/reversecloak/internal/bench"
)

func main() {
	var (
		seedStr   = flag.String("seed", "reversecloak-bench-seed-2017-001", "experiment seed")
		junctions = flag.Int("junctions", 0, "network junctions (default quarter-scale Atlanta)")
		segments  = flag.Int("segments", 0, "network segments")
		cars      = flag.Int("cars", 0, "workload size (default ~1.09/segment)")
		trials    = flag.Int("trials", 0, "trials per table cell (default 15)")
		fullE10   = flag.Bool("full-e10", false, "run E10 at the paper's full 6979/9187/10000 scale")
		paper     = flag.Bool("paper-scale", false, "run EVERYTHING at full Atlanta scale (slow)")
		jsonOut   = flag.String("json", "", "also write machine-readable results to this file")
		only      = flag.String("only", "", "run only these comma-separated experiment IDs (e.g. E17,E18)")
	)
	flag.Parse()

	opts := bench.Options{
		Seed:      []byte(*seedStr),
		Junctions: *junctions,
		Segments:  *segments,
		Cars:      *cars,
		Trials:    *trials,
	}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id != "" {
				opts.Only = append(opts.Only, id)
			}
		}
	}
	if *paper {
		opts.Junctions = 6979
		opts.Segments = 9187
		opts.Cars = 10000
	}
	if *jsonOut == "" {
		if err := bench.RunAll(os.Stdout, opts, *fullE10 || *paper); err != nil {
			fmt.Fprintln(os.Stderr, "reversecloak-bench:", err)
			os.Exit(1)
		}
		return
	}
	f, err := os.Create(*jsonOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reversecloak-bench:", err)
		os.Exit(1)
	}
	err = bench.RunAllJSON(os.Stdout, f, opts, *fullE10 || *paper)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reversecloak-bench:", err)
		os.Exit(1)
	}
	fmt.Println("machine-readable results written to", *jsonOut)
}

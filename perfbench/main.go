// Command perfbench is the repository's benchmark. It starts the real
// stack in-process — replica sets behind wire servers, and a mongos for
// the sharded workload — drives it over TCP loopback through the public
// client APIs with every modeled cost off, checks every output, and
// prints one JSON object as its last line:
//
//	bash perfbench/run.sh --workload cached-zipf --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
// ones, from a span-recording run next to an untraced one plus the
// layer ladder. --workload all runs every workload in turn. DESIGN.md
// next to this file explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	var list []*workload
	if *name == "all" {
		list = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		list = []*workload{w}
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	exit := 0
	for _, w := range list {
		res, err := run(runConfig{
			w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
			spanDir: filepath.Join(".bench_build", "spans"),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		for _, line := range res.report {
			fmt.Println(line)
		}
		out, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		if !res.Correct {
			exit = 1
		}
	}
	os.Exit(exit)
}

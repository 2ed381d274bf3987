// Command repbench regenerates the paper's tables and figures. Each
// experiment id corresponds to one artifact of the evaluation section; see
// DESIGN.md for the full index.
//
// Usage:
//
//	repbench -list
//	repbench -exp table4 -scale small
//	repbench -exp all -scale medium
//	repbench -bench-shards BENCH_shards.json
//	repbench -bench-shards smoke.json -shards 2 -bench-n 200
//	repbench -bench-kernel BENCH_kernel.json -bench-n 400
//	repbench -bench-kernel BENCH_kernel.json -bench-sizes 400,4000
//	repbench -bench-load BENCH_load.json
//	repbench -bench-load BENCH_load.json -bench-sizes 400,4000
//	repbench -bench-graphload BENCH_graphload.json
//	repbench -bench-graphload BENCH_graphload.json -bench-sizes 400,4000
//
// -bench-kernel, -bench-load, and -bench-graphload double as regression
// gates: the process exits non-zero when the bounded kernel's query path is
// not strictly faster than the exact baseline, the mapped index open retains
// more than 64 KiB of heap or grows more than 2× from the smallest to the
// largest size, or the mapped GRDB corpus open is not strictly faster than
// the text parse, at any benchmarked size.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"graphrep/internal/experiments"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (see -list) or \"all\"")
		scale       = flag.String("scale", "small", "scale: small, medium, or paper")
		list        = flag.Bool("list", false, "list experiments and exit")
		out         = flag.String("out", "", "also write output to this file")
		benchShard  = flag.String("bench-shards", "", "run the shard build/query benchmark and write the JSON report to this file (skips experiments)")
		benchKern   = flag.String("bench-kernel", "", "run the bounded-kernel on/off comparison and write the JSON report to this file (skips experiments)")
		benchLd     = flag.String("bench-load", "", "run the mapped index open-cost benchmark (open time flat in n, heap retained bounded) and write the JSON report to this file (skips experiments)")
		benchGrLd   = flag.String("bench-graphload", "", "run the corpus open-cost comparison (text parse vs GRDB mmap) and write the JSON report to this file (skips experiments)")
		shards      = flag.Int("shards", 0, "with -bench-shards: benchmark only this shard count (0 = the 1/2/4 sweep)")
		benchShardN = flag.Int("bench-n", 400, "with -bench-shards/-bench-kernel: benchmark database size")
		benchSizes  = flag.String("bench-sizes", "", "with -bench-kernel: comma-separated database sizes (overrides -bench-n)")
	)
	flag.Parse()
	if *shards < 0 {
		usageError("-shards must be >= 0 (0 = the 1/2/4 sweep), got %d", *shards)
	}
	if *benchShardN <= 0 {
		usageError("-bench-n must be >= 1, got %d", *benchShardN)
	}
	if *shards > 0 && *benchShard == "" {
		usageError("-shards requires -bench-shards")
	}
	modes := 0
	for _, m := range []string{*benchShard, *benchKern, *benchLd, *benchGrLd} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		usageError("-bench-shards, -bench-kernel, -bench-load, and -bench-graphload are mutually exclusive")
	}

	if *benchShard != "" {
		if err := benchShards(os.Stdout, *benchShard, *benchShardN, *shards); err != nil {
			fatal(err)
		}
		return
	}
	if *benchSizes != "" && *benchKern == "" && *benchLd == "" && *benchGrLd == "" {
		usageError("-bench-sizes requires -bench-kernel, -bench-load, or -bench-graphload")
	}
	if *benchKern != "" || *benchLd != "" || *benchGrLd != "" {
		sizes := []int{*benchShardN}
		if (*benchLd != "" || *benchGrLd != "") && *benchSizes == "" {
			// The load benchmarks' point is the scaling contrast, so their
			// default is the two-size sweep rather than a single n.
			sizes = []int{400, 4000}
		}
		if *benchSizes != "" {
			sizes = sizes[:0]
			for _, s := range strings.Split(*benchSizes, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n <= 0 {
					usageError("-bench-sizes: bad size %q", s)
				}
				sizes = append(sizes, n)
			}
		}
		if *benchKern != "" {
			if err := benchKernel(os.Stdout, *benchKern, sizes); err != nil {
				fatal(err)
			}
			return
		}
		if *benchLd != "" {
			if err := benchLoad(os.Stdout, *benchLd, sizes); err != nil {
				fatal(err)
			}
			return
		}
		if err := benchGraphLoad(os.Stdout, *benchGrLd, sizes); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	s, err := experiments.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = io.MultiWriter(os.Stdout, f)
	}
	if *exp == "all" {
		for _, e := range experiments.All() {
			if err := e.Run(w, s); err != nil {
				fatal(fmt.Errorf("%s: %w", e.ID, err))
			}
			fmt.Fprintln(w)
		}
		return
	}
	e, ok := experiments.ByID(*exp)
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q; try -list", *exp))
	}
	if err := e.Run(w, s); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repbench:", err)
	os.Exit(1)
}

// usageError rejects an invalid flag value: the complaint plus the usage
// text on stderr, exit status 2 (flag's own convention for bad invocations,
// distinct from runtime failures, which exit 1 via fatal).
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "repbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

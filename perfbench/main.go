// Command perfbench is graphrep's request-path benchmark. It runs one
// seeded workload against an in-process internal/server over mapped
// GRDB001 and NBIDX004 files, checks every answer against the exact greedy,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 it reports the end-to-end metrics of a closed-loop run.
// With -trace 1 it replays the workload's seeded op sequence with spans
// around every call into the program, writes the spans to a file, and
// derives the per-layer metrics from that file.
//
// Usage (from the repository root, which perfbench/run.sh also builds):
//
//	bash perfbench/run.sh --workload cold-explore --seed 1 --seconds 20 --trace 0
//
// Workloads: cold-explore, warm-serve, insert-mix, or all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// e2eMetrics are the end-to-end metrics, in BENCHMARK.json order.
var e2eMetrics = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p90_ms", "ms", "lower"},
	{"query_qps", "1/s", "higher"},
	{"insert_p50_ms", "ms", "lower"},
	{"heap_live_mb", "MiB", "lower"},
}

func main() {
	workload := flag.String("workload", "", "cold-explore, warm-serve, insert-mix, or all")
	seed := flag.Int64("seed", 1, "workload seed: the corpus, specs, op sequences and held-out graphs derive from it")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 replays the op sequence with spans and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for run files, results and spans")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	var defs []workloadDef
	if *workload == "all" {
		defs = workloads
	} else if w, ok := findWorkload(*workload); ok {
		defs = []workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := readEnvironment(*seed)
	allCorrect := true
	for _, w := range defs {
		_, res, err := runBench(w, *seed, *seconds, *trace == 1, *out, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// runBench measures one workload and prints its report; the caller prints
// the result line.
func runBench(w workloadDef, seed int64, seconds float64, trace bool, out string, env environment) (*bench, result, error) {
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v\n", w.name, seed, seconds, trace)
	fmt.Printf("env: go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s seed=%d\n",
		env.GoVersion, env.GOMAXPROCS, env.NProc, env.CPU, env.Commit, env.Seed)
	dir, err := runDir(out, w.name, seed)
	if err != nil {
		return nil, result{}, err
	}
	defer os.RemoveAll(dir)
	b := &bench{w: w, seed: seed, seconds: seconds, dir: dir}
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	start := time.Now()
	s, err := b.prepare(tr)
	if err != nil {
		return nil, result{}, err
	}
	fmt.Printf("prepared in %s: setups %v, grid %v\n", time.Since(start).Round(time.Millisecond), b.setupS, b.in.grid)
	if b.front, err = startFront(tr); err != nil {
		s.close()
		return nil, result{}, err
	}
	b.front.set(s.handler)
	var metrics map[string]metricValue
	if trace {
		spansPath := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		err = b.traced(s, tr, spansPath)
		if err == nil {
			metrics, err = layerMetricsFromFile(spansPath)
		}
		fmt.Printf("spans: %s\n", spansPath)
	} else {
		metrics, err = b.endToEnd(s)
	}
	if ferr := b.front.stop(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, result{}, err
	}
	res := result{
		Correct:   b.rec.failed == 0 && len(b.rec.breaches) == 0,
		Attempted: b.rec.attempted,
		Failed:    b.rec.failed,
		Metrics:   metrics,
	}
	report(res, b)
	err = writeJSONFile(filepath.Join(out, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, seed, btoi(trace))),
		map[string]any{"workload": w.name, "why": w.why, "seconds": seconds, "environment": env, "result": res,
			"failures": b.rec.failures, "breaches": b.rec.breaches})
	return b, res, err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// endToEnd runs the untraced closed-loop phase and computes the end-to-end
// metrics. It closes every engine it used.
func (b *bench) endToEnd(s *served) (map[string]metricValue, error) {
	if !b.w.cold {
		b.warmUp(s)
	}
	s, err := b.timed(s)
	if err != nil {
		return nil, err
	}
	if b.w.writer {
		err = b.probe(s)
	} else {
		s, err = b.epilogue(s)
	}
	defer s.close()
	if err != nil {
		return nil, err
	}
	b.oracle = nil
	heap := heapLiveMB()
	runtime.KeepAlive(s)
	vals := map[string]float64{
		"setup_s":       quantile(b.setupS, 0.5),
		"query_p50_ms":  quantile(b.rec.queryMs, 0.5),
		"query_p90_ms":  quantile(b.rec.queryMs, 0.9),
		"query_qps":     float64(len(b.rec.queryMs)) / b.rec.phase.Seconds(),
		"insert_p50_ms": quantile(b.rec.insertMs, 0.5),
		"heap_live_mb":  heap,
	}
	metrics := map[string]metricValue{}
	for _, m := range e2eMetrics {
		metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	// Tails without a bound: query_p99_ms needs the 1000 samples cold-explore
	// never reaches, and insert_p90_ms spread past any bound between seeds.
	fmt.Printf("samples: queries=%d inserts=%d phase=%s query_p99_ms=%.4f insert_p90_ms=%.4f\n",
		len(b.rec.queryMs), len(b.rec.insertMs), b.rec.phase.Round(time.Millisecond),
		quantile(b.rec.queryMs, 0.99), quantile(b.rec.insertMs, 0.9))
	return metrics, nil
}

// report prints every metric by name and unit, and any failures.
func report(res result, b *bench) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	moves := map[string]string{}
	for _, m := range layerMetrics {
		moves[m.name] = m.layer + " layer; moves " + m.moves
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %14.4f %-6s %s\n", n, m.Value, m.Unit, moves[n])
	}
	fmt.Printf("checks: attempted=%d failed=%d breaches=%d\n", res.Attempted, res.Failed, len(b.rec.breaches))
	for _, f := range b.rec.failures {
		fmt.Println("  FAIL", f)
	}
	for _, f := range b.rec.breaches {
		fmt.Println("  BREACH", f)
	}
}

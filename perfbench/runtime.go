package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
)

// runtimeStats are the process-wide Go runtime counters the benchmark
// reads from runtime/metrics.
type runtimeStats struct {
	heapLive   uint64
	allocBytes uint64
	gcCycles   uint64
	gcPauseS   float64
}

func readRuntime() runtimeStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	var st runtimeStats
	if samples[0].Value.Kind() == metrics.KindUint64 {
		st.heapLive = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		st.allocBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		st.gcCycles = samples[2].Value.Uint64()
	}
	if samples[3].Value.Kind() == metrics.KindFloat64Histogram {
		st.gcPauseS = histogramSum(samples[3].Value.Float64Histogram())
	}
	return st
}

// histogramSum approximates the total of a runtime/metrics histogram by
// counting each sample at its bucket's midpoint (the lower bound for the
// open-ended last bucket).
func histogramSum(h *metrics.Float64Histogram) float64 {
	total := 0.0
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case lo < -1e300:
			mid = hi
		case hi > 1e300:
			mid = lo
		}
		total += float64(n) * mid
	}
	return total
}

// environment is the block every result carries.
type environment struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func readEnvironment(seed int64) environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		Commit:     "unknown",
		Seed:       seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

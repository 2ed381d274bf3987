package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"graphrep"
)

// The -bench-load mode: measure what it costs to come back up from a saved
// index. The v4 open parses the header and directory and serves the arrays
// in place from the mapping, so open time should be flat in n and the heap
// it retains a small constant; pages fault in only as queries touch them.
// The JSON report lands in BENCH_load.json; the committed copy at the repo
// root is the reference run.

// Gate limits. A decode-to-heap loader fails both: on a 2-vCPU VM, the v3
// gob decode this format replaced grew 2.9–4.5× in open time from n=400 to
// n=1200 and retained 503 KiB and 1.59 MiB of live heap, where the v4 open
// retains about 16 KiB.
const (
	// maxHeapRetained bounds the heap one held-open engine may retain, at
	// every size.
	maxHeapRetained = 64 << 10
	// maxOpenRatio bounds open time at the largest size over open time at
	// the smallest.
	maxOpenRatio = 2.0
)

// LoadBenchResult is one size of the benchmark.
type LoadBenchResult struct {
	N          int   `json:"n"`
	IndexBytes int64 `json:"index_bytes"`
	// OpenNsPerOp is the best round's mean open+close time; OpenRoundsNs
	// lists every round's, for the spread.
	OpenNsPerOp  int64   `json:"open_ns_per_op"`
	OpenRoundsNs []int64 `json:"open_rounds_ns"`
	OpenIters    int     `json:"open_iters"`
	// HeapRetainedBytes is the post-GC live-heap growth attributable to one
	// open held alive; RSSDeltaKB the resident-set growth around it (0 where
	// /proc/self/status is unavailable).
	HeapRetainedBytes int64 `json:"heap_retained_bytes"`
	RSSDeltaKB        int64 `json:"rss_delta_kb"`
}

// LoadBenchReport is the full -bench-load output.
type LoadBenchReport struct {
	Dataset string            `json:"dataset"`
	Seed    int64             `json:"seed"`
	Shards  int               `json:"shards"`
	Workers int               `json:"workers"` // resolved GOMAXPROCS at run time
	Results []LoadBenchResult `json:"results"`
	// OpenRatio is the largest size's OpenNsPerOp over the smallest size's.
	OpenRatio float64 `json:"open_ratio"`
}

// benchLoad builds and saves an index per size, then times reopening each
// through OpenWithIndexFile. Like -bench-kernel it doubles as a regression
// gate: the process exits non-zero when an open retains more than
// maxHeapRetained bytes of heap at any size, or when open time at the
// largest size exceeds maxOpenRatio times open time at the smallest.
func benchLoad(w io.Writer, outPath string, sizes []int) error {
	const (
		dataset    = "dud"
		seed       = int64(1)
		shards     = 2
		openRounds = 5
		openIters  = 10
	)
	tmp, err := os.MkdirTemp("", "repbench-load")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	report := LoadBenchReport{
		Dataset: dataset, Seed: seed, Shards: shards,
		Workers: runtime.GOMAXPROCS(0),
	}
	// Every size's database and index file exist before any timing, so all
	// sizes are timed against the same live heap.
	dbs := make([]*graphrep.Database, len(sizes))
	paths := make([]string, len(sizes))
	for i, n := range sizes {
		db, err := graphrep.GenerateDataset(dataset, n, seed)
		if err != nil {
			return err
		}
		engine, err := graphrep.Open(db, graphrep.Options{Seed: seed, Shards: shards})
		if err != nil {
			return err
		}
		path := filepath.Join(tmp, fmt.Sprintf("index_%d.nbx", n))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = engine.SaveIndex(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		dbs[i], paths[i] = db, path
		report.Results = append(report.Results, LoadBenchResult{N: n, OpenRoundsNs: make([]int64, openRounds), OpenIters: openIters})
	}

	// Timing rounds: open and close, so mappings don't pile up. Rounds
	// alternate between sizes, so a slow spell on the machine lands on all of
	// them; the best round is the one least disturbed.
	for r := 0; r < openRounds; r++ {
		for i := range sizes {
			start := time.Now()
			for j := 0; j < openIters; j++ {
				e, err := graphrep.OpenWithIndexFile(dbs[i], paths[i])
				if err != nil {
					return err
				}
				if err := e.Close(); err != nil {
					return err
				}
			}
			res := &report.Results[i]
			res.OpenRoundsNs[r] = time.Since(start).Nanoseconds() / openIters
			if r == 0 || res.OpenRoundsNs[r] < res.OpenNsPerOp {
				res.OpenNsPerOp = res.OpenRoundsNs[r]
			}
		}
	}

	var failures []string
	for i := range sizes {
		res := &report.Results[i]
		fi, err := os.Stat(paths[i])
		if err != nil {
			return err
		}
		res.IndexBytes = fi.Size()
		// Residency: one open held alive, measured across forced GCs so
		// only memory the engine actually retains is charged to it. Live
		// heap bytes, not in-use spans: span counts move with the heap's
		// layout by whole 8 KiB spans, whatever the open retains.
		heapBefore := liveHeap()
		_, rssBefore := memoryFootprint()
		held, err := graphrep.OpenWithIndexFile(dbs[i], paths[i])
		if err != nil {
			return err
		}
		heapAfter := liveHeap()
		_, rssAfter := memoryFootprint()
		if err := held.Close(); err != nil {
			return err
		}
		res.HeapRetainedBytes = heapAfter - heapBefore
		res.RSSDeltaKB = rssAfter - rssBefore
		fmt.Fprintf(w, "n=%-6d %7d bytes  open %v/op (best of %d rounds of %d)  heap +%d B  rss %+d KB\n",
			res.N, res.IndexBytes, time.Duration(res.OpenNsPerOp).Round(time.Microsecond), openRounds, openIters,
			res.HeapRetainedBytes, res.RSSDeltaKB)
		if res.HeapRetainedBytes > maxHeapRetained {
			failures = append(failures, fmt.Sprintf("n=%d open retains %d B of heap (limit %d B)",
				res.N, res.HeapRetainedBytes, maxHeapRetained))
		}
	}
	if len(report.Results) > 0 {
		smallest, largest := report.Results[0], report.Results[0]
		for _, r := range report.Results {
			if r.N < smallest.N {
				smallest = r
			}
			if r.N > largest.N {
				largest = r
			}
		}
		report.OpenRatio = float64(largest.OpenNsPerOp) / float64(smallest.OpenNsPerOp)
		fmt.Fprintf(w, "open ratio n=%d/n=%d: %.2fx (limit %.1fx)\n", largest.N, smallest.N, report.OpenRatio, maxOpenRatio)
		if report.OpenRatio > maxOpenRatio {
			failures = append(failures, fmt.Sprintf("open time grows %.2fx from n=%d to n=%d (limit %.1fx)",
				report.OpenRatio, smallest.N, largest.N, maxOpenRatio))
		}
	}

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(report)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	for _, msg := range failures {
		fmt.Fprintf(w, "REGRESSION: %s\n", msg)
	}
	if len(failures) > 0 {
		return fmt.Errorf("index open regressed (see report)")
	}
	return nil
}

// liveHeap returns the bytes of live heap objects after two forced GCs: the
// second frees what sync.Pool victim caches held through the first.
func liveHeap() int64 {
	debug.FreeOSMemory()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// memoryFootprint samples the post-GC heap in use and, on linux, the
// process resident set from /proc/self/status (0 elsewhere).
func memoryFootprint() (heapBytes, rssKB int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBytes = int64(ms.HeapInuse)
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return heapBytes, 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
					rssKB = kb
				}
			}
			break
		}
	}
	return heapBytes, rssKB
}

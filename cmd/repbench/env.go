package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is the block every report carries, so a wall-clock figure
// can be read against the machine and the code that produced it.
type environment struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	// Commit is the VCS revision stamped into the binary, with a "-dirty"
	// suffix when the tree had uncommitted changes; "unknown" when the
	// build carries no stamp (go run does not add one).
	Commit string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		Commit:     "unknown",
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
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && env.Commit != "unknown" {
			env.Commit += "-dirty"
		}
	}
	return env
}

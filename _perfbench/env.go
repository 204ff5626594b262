package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// env is the environment every result records: what the numbers were
// measured on, and of which source.
type env struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Traced     bool              `json:"traced"`
	CPU        string            `json:"cpu"`
	Caches     map[string]string `json:"caches"` // "L2" -> "2048K", ...
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go"`
	Commit     string            `json:"commit"` // git HEAD, or "unknown" outside a git checkout's root
	Sizes      map[string]string `json:"sizes"`  // workload working sets, beside the cache sizes
}

func captureEnv(workload string, seed uint64, traced bool) env {
	return env{
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
		CPU:        cpuModel(),
		Caches:     cacheSizes(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Sizes:      workingSets(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's data/unified cache sizes by level from sysfs.
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		if read("type") == "Instruction" {
			continue
		}
		out["L"+read("level")] = read("size")
	}
	return out
}

// gitCommit asks git only when the working directory is a checkout's
// root, so git never searches the directories above it.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance records what a result was measured on and with.
type provenance struct {
	NumCPU          int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	BccdGOMAXPROCS  int    `json:"bccd_gomaxprocs,omitempty"`
	CPUModel        string `json:"cpu_model"`
	GoVersion       string `json:"go_version"`
	Commit          string `json:"commit"`
	Seed            int64  `json:"seed"`
	Seconds         int    `json:"seconds"`
	GraphVertices   int    `json:"graph_n"`
	GraphEdges      int    `json:"graph_m"`
	BccdPlanDecided string `json:"bccd_plan,omitempty"`
	// StealPct is the share of CPU time the hypervisor took from this
	// machine during the timed phase: a slow run on a busy host shows here.
	StealPct float64 `json:"host_steal_pct"`
}

func collectProvenance(o options) provenance {
	return provenance{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		Commit:        commit(),
		Seed:          o.seed,
		Seconds:       o.seconds,
		GraphVertices: graphN,
		GraphEdges:    graphM,
	}
}

// noteDaemon adds what only the daemon knows: its worker cap (GOMAXPROCS)
// and the engines its frozen planner dispatched.
func (p *provenance) noteDaemon(st *statsz) {
	if st.Plan == nil {
		return
	}
	p.BccdGOMAXPROCS = st.Plan.MaxProcs
	var engines []string
	for e := range st.Plan.ByEngine {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	p.BccdPlanDecided = strings.Join(engines, ",")
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

// commit names the code under test: the git commit when the checkout is a
// clean repository, otherwise a hash of every Go source and go.mod in it. A
// repository with uncommitted changes gets both, marked dirty, so a result
// never names a commit for code that commit does not hold.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		head, err := exec.Command("git", "rev-parse", "HEAD").Output()
		status, serr := exec.Command("git", "status", "--porcelain").Output()
		if err == nil && serr == nil {
			sha := strings.TrimSpace(string(head))
			if len(bytes.TrimSpace(status)) == 0 {
				return sha
			}
			return sha + "+dirty:" + treeHash()
		}
	}
	return treeHash()
}

// treeHash hashes every Go source and go.mod under the working directory,
// skipping hidden directories.
func treeHash() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod"):
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(raw)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

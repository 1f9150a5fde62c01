package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a shared VM the hypervisor can take a large share of this machine's
// CPU time for seconds at a stretch, and every latency measured then reads
// slow: host noise, not the program. The timed phase therefore samples the
// host's steal share in short windows. An operation that overlaps a window
// stolen above stealThreshold is set aside, and the phase runs on until
// enough operations ran in clean windows. The result file keeps every
// window, so what was set aside and why stays visible.
const (
	stealWindow    = 500 * time.Millisecond
	stealThreshold = 5.0 // percent of the window's CPU time
	// noFilter is the threshold at which nothing is set aside: a share of
	// CPU time never exceeds 100 %.
	noFilter = 100.0
)

// cpuStat is the aggregate line of /proc/stat: busy-or-idle jiffies and the
// part of them stolen by the hypervisor.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var st cpuStat
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil || i >= 8 { // user .. steal; guest time is already in user
			break
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

func (s cpuStat) stealPctSince(before cpuStat) float64 {
	if s.total <= before.total {
		return 0
	}
	return 100 * float64(s.steal-before.steal) / float64(s.total-before.total)
}

// window is one sampling interval of the timed phase, in seconds after the
// phase's start.
type window struct {
	StartS   float64 `json:"start_s"`
	EndS     float64 `json:"end_s"`
	StealPct float64 `json:"steal_pct"`
	// CPUMs is the CPU time bccd used in the window.
	CPUMs float64 `json:"bccd_cpu_ms"`
}

// stealMonitor samples host steal and the daemon's CPU time every
// stealWindow until stopped.
type stealMonitor struct {
	start time.Time
	cpu   func() (time.Duration, error)
	stop  chan struct{}
	done  chan struct{}

	mu      sync.Mutex
	windows []window
}

func startStealMonitor(start time.Time, cpu func() (time.Duration, error)) *stealMonitor {
	m := &stealMonitor{start: start, cpu: cpu, stop: make(chan struct{}), done: make(chan struct{})}
	// The first window opens before any operation can start.
	at, st := time.Now(), readCPUStat()
	c, _ := cpu()
	go m.loop(at, st, c)
	return m
}

func (m *stealMonitor) loop(at time.Time, st cpuStat, cpu time.Duration) {
	defer close(m.done)
	tick := time.NewTicker(stealWindow)
	defer tick.Stop()
	for {
		stopped := false
		select {
		case <-tick.C:
		case <-m.stop:
			stopped = true
		}
		at1, st1 := time.Now(), readCPUStat()
		cpu1, _ := m.cpu()
		m.mu.Lock()
		m.windows = append(m.windows, window{
			StartS:   at.Sub(m.start).Seconds(),
			EndS:     at1.Sub(m.start).Seconds(),
			StealPct: st1.stealPctSince(st),
			CPUMs:    ms(cpu1 - cpu),
		})
		m.mu.Unlock()
		if stopped {
			return
		}
		at, st, cpu = at1, st1, cpu1
	}
}

// finish takes a last window up to now and returns them all.
func (m *stealMonitor) finish() []window {
	close(m.stop)
	<-m.done
	return m.snapshot()
}

func (m *stealMonitor) snapshot() []window {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]window(nil), m.windows...)
}

// clean reports whether an operation that ran from startS for latMs lies
// wholly inside windows stolen at most thresholdPct. An operation no
// window covers yet is not clean.
func clean(ws []window, thresholdPct, startS, latMs float64) bool {
	endS := startS + latMs/1000
	if len(ws) == 0 || endS > ws[len(ws)-1].EndS || startS < ws[0].StartS {
		return false
	}
	// Windows are contiguous and in order: find the first one ending after
	// the operation starts and walk forward.
	i := sort.Search(len(ws), func(i int) bool { return ws[i].EndS > startS })
	for ; i < len(ws) && ws[i].StartS < endS; i++ {
		if ws[i].StealPct > thresholdPct {
			return false
		}
	}
	return true
}

// keep splits an operation's samples into those clean at thresholdPct,
// returning their latencies.
func keep(ws []window, thresholdPct float64, latMs, startS []float64) []float64 {
	var out []float64
	for i, l := range latMs {
		if clean(ws, thresholdPct, startS[i], l) {
			out = append(out, l)
		}
	}
	return out
}

// pickThreshold is the lowest steal threshold, stealThreshold or above, at
// which every op keeps minSamples clean samples: the cleanest windows the
// run has. When no threshold gets there, nothing is set aside.
func pickThreshold(ws []window, rec *recorder, ops []string) float64 {
	cands := []float64{stealThreshold}
	for _, w := range ws {
		if w.StealPct > stealThreshold {
			cands = append(cands, w.StealPct)
		}
	}
	sort.Float64s(cands)
	for _, c := range cands {
		if enoughClean(ws, c, rec, ops) {
			return c
		}
	}
	return noFilter
}

func enoughClean(ws []window, thresholdPct float64, rec *recorder, ops []string) bool {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, op := range ops {
		if len(keep(ws, thresholdPct, rec.lat[op], rec.at[op])) < minSamples {
			return false
		}
	}
	return true
}

// stealDetail is the result file's account of the timed phase's windows.
type stealDetail struct {
	ThresholdPct float64  `json:"threshold_pct"`
	KeptS        float64  `json:"kept_s"`
	DroppedS     float64  `json:"dropped_s"`
	Dropped      int      `json:"dropped_windows"`
	Windows      []window `json:"windows"`
}

// keptWindows sums the windows at or under thresholdPct: their length, the
// op completions inside them and the daemon CPU time they used.
func keptWindows(ws []window, thresholdPct float64, rec *recorder, ops []string) (seconds float64, completions int, cpuMs float64) {
	for _, w := range ws {
		if w.StealPct <= thresholdPct {
			seconds += w.EndS - w.StartS
			cpuMs += w.CPUMs
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, op := range ops {
		for i, l := range rec.lat[op] {
			end := rec.at[op][i] + l/1000
			j := sort.Search(len(ws), func(j int) bool { return ws[j].EndS >= end })
			if j < len(ws) && ws[j].StealPct <= thresholdPct {
				completions++
			}
		}
	}
	return seconds, completions, cpuMs
}

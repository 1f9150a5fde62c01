// Command bccdbench is the repository's benchmark. A load generator in this
// process drives the real bccd binary over loopback, one workload per run,
// and checks every answer against a sequential oracle. With -trace 1 it
// instead replays the workloads' operations in-process, timing the calls
// into each layer of the service.
//
// Run it through run.sh, which builds bccd and this command from the
// checkout first:
//
//	bash bccdbench/run.sh --workload ingest --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A fuller result file, with
// provenance and per-operation sample counts, is written under -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run starts bccd and sets the workload
	// up; setup_s is their median and only the last daemon is measured. A
	// set-up during which the host's steal exceeded stealThreshold is done
	// again, up to maxSetupReps set-ups in all; setup_s is then the median
	// of the setupReps least stolen.
	setupReps    = 5
	maxSetupReps = 7
	// minSamples per timed operation leaves at least ten samples beyond
	// each p90. The timed phase runs past -seconds until both timed
	// operations have them in clean windows (steal.go), but stops at
	// maxPhaseFactor × -seconds so a slow host cannot stretch a run without
	// bound; a run cut short says so in its result file.
	minSamples     = 100
	maxPhaseFactor = 1.6
	// maxFailures ends the timed phase early: the run is already failed.
	maxFailures = 10
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	bccd     string
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: ingest or hot")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 35, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end workload")
	flag.StringVar(&o.bccd, "bccd", "", "path to the bccd binary under test")
	flag.StringVar(&o.out, "out", ".bench_build/results", "directory for result files")
	flag.Parse()
	os.Exit(run(o))
}

func run(o options) int {
	w := workloads[o.workload]
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "bccdbench: unknown -workload %q (want ingest or hot)\n", o.workload)
		return 2
	case o.bccd == "":
		fmt.Fprintln(os.Stderr, "bccdbench: -bccd is required")
		return 2
	case o.seconds < 1 || o.trace < 0 || o.trace > 1:
		fmt.Fprintln(os.Stderr, "bccdbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rf := &resultFile{Provenance: collectProvenance(o), Workload: o.workload, Trace: o.trace}
	var err error
	if o.trace == 1 {
		err = runTraced(ctx, o, rf)
	} else {
		err = runWorkload(ctx, o, w, rf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bccdbench:", err)
		return 1
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	if err := writeJSONFile(path, rf); err != nil {
		fmt.Fprintln(os.Stderr, "bccdbench: writing result file:", err)
		return 1
	}
	for _, msg := range append(rf.SelfCheckFailures, rf.Failures...) {
		fmt.Fprintln(os.Stderr, "bccdbench: FAIL:", msg)
	}
	line, err := json.Marshal(rf.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bccdbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rf.Result.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is the full record of one run, written under -out.
type resultFile struct {
	Provenance        provenance           `json:"provenance"`
	Workload          string               `json:"workload"`
	Trace             int                  `json:"trace"`
	Result            result               `json:"result"`
	PrepareSeconds    float64              `json:"prepare_s"`
	SetupSeconds      []float64            `json:"setup_s_each"`
	SetupStealPct     []float64            `json:"setup_steal_pct_each,omitempty"`
	PhaseSeconds      float64              `json:"phase_s"`
	Steal             *stealDetail         `json:"steal,omitempty"`
	Ops               map[string]opSummary `json:"ops"`
	Statsz            json.RawMessage      `json:"statsz,omitempty"`
	SelfCheckFailures []string             `json:"self_check_failures,omitempty"`
	Failures          []string             `json:"failures,omitempty"`
	Traced            *tracedDetail        `json:"traced,omitempty"`
}

// opSummary describes the samples behind one latency metric. The raw
// samples, in completion order with their start times, let a reader see
// whether a slow tail came from one stretch of the run or from all of it.
// Samples counts those kept; Dropped those set aside for host steal.
type opSummary struct {
	Samples   int       `json:"samples"`
	Dropped   int       `json:"dropped_for_steal,omitempty"`
	BeyondP90 int       `json:"beyond_p90"`
	P50Ms     float64   `json:"p50_ms"`
	P90Ms     float64   `json:"p90_ms"`
	MinMs     float64   `json:"min_ms"`
	MaxMs     float64   `json:"max_ms"`
	LatMs     []float64 `json:"latency_ms,omitempty"`
	StartS    []float64 `json:"start_s,omitempty"`
}

func summarize(ms []float64) opSummary {
	if len(ms) == 0 {
		return opSummary{}
	}
	s := slices.Clone(ms)
	sort.Float64s(s)
	return opSummary{
		Samples:   len(s),
		BeyondP90: len(s) - rank(len(s), 0.9) - 1,
		P50Ms:     s[rank(len(s), 0.5)],
		P90Ms:     s[rank(len(s), 0.9)],
		MinMs:     s[0],
		MaxMs:     s[len(s)-1],
	}
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runWorkload is the end-to-end mode: set bccd up setupReps times, then
// drive the last one for the timed phase and check everything it said.
func runWorkload(ctx context.Context, o options, w *workload, rf *resultFile) error {
	t0 := time.Now()
	newSession, err := w.prepare(o.seed)
	if err != nil {
		return err
	}
	rf.PrepareSeconds = time.Since(t0).Seconds()

	hc := newClient()
	defer hc.CloseIdleConnections()
	var d *daemon
	var sess session
	clean := 0
	for i := 0; i < maxSetupReps && clean < setupReps; i++ {
		if d != nil {
			d.stop()
			hc.CloseIdleConnections()
		}
		sess = newSession()
		st0, start := readCPUStat(), time.Now()
		if d, err = startDaemon(ctx, o.bccd, hc); err != nil {
			return err
		}
		if err := sess.setup(ctx, &client{t: httpTarget{hc, d.base}}); err != nil {
			d.stop()
			return err
		}
		rf.SetupSeconds = append(rf.SetupSeconds, time.Since(start).Seconds())
		steal := readCPUStat().stealPctSince(st0)
		rf.SetupStealPct = append(rf.SetupStealPct, steal)
		if steal <= stealThreshold {
			clean++
		}
	}
	defer d.stop()

	steal0 := readCPUStat()
	rec := newRecorder()
	mon := startStealMonitor(rec.start, d.cpuTime)
	ops := []string{w.op1, w.op2}
	phase := timedPhase(ctx, time.Duration(o.seconds)*time.Second, w, rec, mon, func(worker int) func() {
		c := &client{t: httpTarget{hc, d.base}}
		return func() { sess.step(ctx, c, worker, rec) }
	})
	ws := mon.finish()
	if err := ctx.Err(); err != nil {
		return err
	}
	rf.PhaseSeconds = phase.Seconds()
	rf.Provenance.StealPct = readCPUStat().stealPctSince(steal0)

	st, raw, err := d.statsz(ctx, hc)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return err
	}
	rf.Statsz = raw
	rf.Provenance.noteDaemon(st)
	rf.SelfCheckFailures = sess.selfCheck(st)
	rf.Failures = rec.failures
	failed := rec.failed
	if err := sess.verify(); err != nil {
		// A sampled answer that a recompute contradicts is a failed operation.
		rf.Failures = append(rf.Failures, err.Error())
		failed++
	}

	threshold := pickThreshold(ws, rec, ops)
	keptS, completions, cpuMs := keptWindows(ws, threshold, rec, ops)
	rf.Steal = &stealDetail{ThresholdPct: threshold, KeptS: keptS, DroppedS: phase.Seconds() - keptS, Windows: ws}
	for _, win := range ws {
		if win.StealPct > threshold {
			rf.Steal.Dropped++
		}
	}
	rf.Ops = map[string]opSummary{}
	for op, lat := range rec.lat {
		kept := keep(ws, threshold, lat, rec.at[op])
		sum := summarize(kept)
		sum.Dropped = len(lat) - len(kept)
		sum.LatMs, sum.StartS = lat, rec.at[op]
		rf.Ops[op] = sum
	}
	op1, op2 := rf.Ops[w.op1], rf.Ops[w.op2]
	if op1.Samples == 0 || op2.Samples == 0 || completions == 0 {
		return fmt.Errorf("no %s or no %s succeeded in a kept window: %v", w.op1, w.op2, rf.Failures)
	}
	for _, op := range ops {
		if n := rf.Ops[op].BeyondP90; n < 10 {
			fmt.Fprintf(os.Stderr, "bccdbench: warning: %s p90 has only %d samples beyond it after %.1f s\n", op, n, phase.Seconds())
		}
	}
	rf.Result = result{
		Correct:   failed == 0 && len(rf.SelfCheckFailures) == 0,
		Attempted: rec.attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":              {median(leastStolen(rf.SetupSeconds, rf.SetupStealPct, setupReps)), "s"},
			"ops_per_s":            {float64(completions) / keptS, "1/s"},
			"server_rss_mb":        {rss, "MiB"},
			"server_cpu_ms_per_op": {cpuMs / float64(completions), "ms"},
			"op1_p50_ms":           {op1.P50Ms, "ms"},
			"op1_p90_ms":           {op1.P90Ms, "ms"},
			"op2_p50_ms":           {op2.P50Ms, "ms"},
			"op2_p90_ms":           {op2.P90Ms, "ms"},
		},
	}
	return nil
}

// leastStolen returns the n values whose steal share was lowest.
func leastStolen(v, steal []float64, n int) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	var out []float64
	for _, i := range idx[:min(n, len(idx))] {
		out = append(out, v[i])
	}
	return out
}

// timedPhase runs w.clients closed-loop clients until d has passed and both
// timed operations have minSamples samples in windows stolen at most
// stealThreshold, or the phase cap, cancellation or maxFailures ends it. It
// returns the phase's wall-clock length.
func timedPhase(ctx context.Context, d time.Duration, w *workload, rec *recorder, mon *stealMonitor, newWorker func(worker int) func()) time.Duration {
	start := rec.start
	limit := time.Duration(maxPhaseFactor * float64(d))
	done := func() bool {
		el := time.Since(start)
		switch {
		case ctx.Err() != nil || el >= limit || rec.failedCount() >= maxFailures:
			return true
		case el < d:
			return false
		}
		return enoughClean(mon.snapshot(), stealThreshold, rec, []string{w.op1, w.op2})
	}
	var wg sync.WaitGroup
	for i := 0; i < w.clients; i++ {
		step := newWorker(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done() {
				step()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

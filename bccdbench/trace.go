package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"bicc"
	"bicc/internal/graph"
	"bicc/internal/incr"
	"bicc/internal/obs"
	"bicc/internal/plan"
	"bicc/internal/service"
)

// The traced run drives every workload's session, ingest, hot and mutate,
// twice in lockstep: against its own bccd over loopback and against its own
// service.Server served in-process through its Handler. A recorder hook
// turns each request into a span covering exactly its timed interval
// (http.<op> over loopback, service.<op> in-process). After each round the
// library calls those requests make (graph.parse, plan.features,
// views.reconstruct, ...) are timed from here, around the layers' public
// functions. All spans live on one obs.Trace, under one op.<op> root per
// operation kind and round, and are written out when the run ends.

// engineReps is the repetition count of each paper row (engine, procs).
const engineReps = 3

// tracedDetail is the traced run's part of the result file.
type tracedDetail struct {
	Rounds       int                `json:"rounds"`
	PlanDecision string             `json:"plan_decision"`
	EngineRows   []engineRow        `json:"engine_rows"`
	SpansFile    string             `json:"spans_file"`
	SelfTimeMs   map[string]float64 `json:"median_self_ms_by_span"`
}

// engineRow is one (engine, procs) row of the paper's Fig. 3 and 4: median
// wall time with CSR conversion charged, and the median of each phase.
type engineRow struct {
	Engine  string             `json:"engine"`
	Procs   int                `json:"procs"`
	Reps    int                `json:"reps"`
	TotalMs float64            `json:"total_ms"`
	PhaseMs map[string]float64 `json:"phase_ms"`
}

var tracedOps = []string{"upload", "cold", "hit", "dump", "commit", "fresh"}

// side is one session of a workload against one target: bccd over loopback
// or the in-process server.
type side struct {
	sess session
	c    *client
}

// tracedWorkload runs one workload's session twice, in lockstep: against its
// own bccd and against its own in-process service.Server, each built with
// bccd's configuration, so each session's self-checks hold as in the
// end-to-end run.
type tracedWorkload struct {
	name          string
	d             *daemon
	remote, local side
}

func (tw *tracedWorkload) step(ctx context.Context, rp *replay, worker int) {
	tw.remote.sess.step(ctx, tw.remote.c, worker, rp.remoteRec)
	tw.local.sess.step(ctx, tw.local.c, worker, rp.localRec)
}

// replay is the traced run's state.
type replay struct {
	tr                  *obs.Trace
	remoteRec, localRec *recorder // the sessions' requests: http.<op>, service.<op>
	lib                 *recorder // library-call and engine checks
	ingest, hot, mutate *tracedWorkload
	roots               map[string]*obs.Span // this round's op.<op> spans
	mirror              *incr.State          // client-side copy of the mutated graph's state
	mirrorG             *bicc.Graph
	planner             *plan.Planner // frozen, private: every graph it sees is new
	decision            string
	sizes, allocMB, gcs map[string][]float64
}

func runTraced(ctx context.Context, o options, rf *resultFile) error {
	start := time.Now()
	rp := &replay{
		tr:        obs.NewTrace(),
		remoteRec: newRecorder(),
		localRec:  newRecorder(),
		lib:       newRecorder(),
		sizes:     map[string][]float64{},
		allocMB:   map[string][]float64{},
		gcs:       map[string][]float64{},
		planner:   plan.New(plan.Config{Frozen: true, Registry: obs.NewRegistry()}),
	}
	rp.remoteRec.onRecord = rp.span("http")
	rp.localRec.onRecord = rp.span("service")
	var factories [3]func() session
	for i, prepare := range []func(int64) (func() session, error){prepareIngest, prepareHot, prepareMutate} {
		f, err := prepare(o.seed)
		if err != nil {
			return err
		}
		factories[i] = f
	}
	rf.PrepareSeconds = time.Since(start).Seconds()

	// bccd always runs instrumented; the in-process servers match it.
	obs.SetEnabled(true)
	hc := newClient()
	defer hc.CloseIdleConnections()
	setupStart := time.Now()
	var tws []*tracedWorkload
	defer func() {
		for _, tw := range tws {
			tw.d.stop()
		}
	}()
	for i, name := range []string{"ingest", "hot", "mutate"} {
		d, err := startDaemon(ctx, o.bccd, hc)
		if err != nil {
			return err
		}
		srv := service.New(service.Config{Queue: -1, PlanMode: service.PlanFrozen})
		tw := &tracedWorkload{
			name:   name,
			d:      d,
			remote: side{factories[i](), &client{t: httpTarget{hc, d.base}}},
			local:  side{factories[i](), &client{t: &inprocTarget{h: srv.Handler(), mem: true}}},
		}
		tws = append(tws, tw)
		for _, sd := range []side{tw.remote, tw.local} {
			if err := sd.sess.setup(ctx, sd.c); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	rp.ingest, rp.hot, rp.mutate = tws[0], tws[1], tws[2]
	ms := rp.mutate.remote.sess.(*mutateSession)
	var err error
	if rp.mirror, err = incr.NewState(ms.in.g, ms.in.oracle.res); err != nil {
		return err
	}
	rp.mirrorG = ms.in.g
	if err := rp.applyMirror(nil, ms.inserts); err != nil {
		return fmt.Errorf("replaying the set-up batches: %w", err)
	}
	rf.SetupSeconds = []float64{time.Since(setupStart).Seconds()}

	steal0 := readCPUStat()
	phaseStart := time.Now()
	deadline := phaseStart.Add(time.Duration(o.seconds) * time.Second)
	rows, err := rp.engineRows(ctx)
	if err != nil {
		return err
	}
	rounds := 0
	for ; rounds < 5 || time.Now().Before(deadline); rounds++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if rp.failed() >= maxFailures {
			break
		}
		rp.round(ctx, rounds)
	}
	rf.PhaseSeconds = time.Since(phaseStart).Seconds()
	rf.Provenance.StealPct = readCPUStat().stealPctSince(steal0)

	raws := map[string]json.RawMessage{}
	var sts []*statsz
	for _, tw := range tws {
		st, raw, err := tw.d.statsz(ctx, hc)
		if err != nil {
			return err
		}
		raws[tw.name] = raw
		sts = append(sts, st)
		for _, msg := range tw.remote.sess.selfCheck(st) {
			rf.SelfCheckFailures = append(rf.SelfCheckFailures, tw.name+": "+msg)
		}
		for _, sd := range []side{tw.remote, tw.local} {
			rp.lib.note(tw.name+" verify", sd.sess.verify())
		}
	}
	if rf.Statsz, err = json.Marshal(raws); err != nil {
		return err
	}
	rf.Provenance.noteDaemon(sts[0])

	exp := rp.tr.Export()
	if err := exp.Validate(); err != nil {
		return err
	}
	spansFile := fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed)
	if err := writeJSONFile(filepath.Join(o.out, spansFile), exp); err != nil {
		return err
	}
	self := selfTimes(exp)
	m := rp.metrics(self, rows, sts)
	rf.Ops = map[string]opSummary{}
	for _, op := range tracedOps {
		rf.Ops["http."+op] = summarize(self["http."+op])
		rf.Ops["service."+op] = summarize(self["service."+op])
	}
	rf.Traced = &tracedDetail{Rounds: rounds, PlanDecision: rp.decision, EngineRows: rows, SpansFile: spansFile, SelfTimeMs: map[string]float64{}}
	for name, v := range self {
		rf.Traced.SelfTimeMs[name] = median(v)
	}
	attempted, failed := 0, 0
	for _, r := range []*recorder{rp.remoteRec, rp.localRec, rp.lib} {
		attempted += r.attempted
		failed += r.failed
		rf.Failures = append(rf.Failures, r.failures...)
	}
	rf.Result = result{
		Correct:   failed == 0 && len(rf.SelfCheckFailures) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}
	return nil
}

func (rp *replay) failed() int {
	return rp.remoteRec.failedCount() + rp.localRec.failedCount() + rp.lib.failedCount()
}

// span returns a recorder hook that turns each request a session records
// into a child span prefix.<op> of this round's op span, covering exactly
// the request's timed interval. For the in-process target it also keeps
// the response size and the allocation and GC cycles of the handler call.
func (rp *replay) span(prefix string) func(op string, c *client, err error) {
	return func(op string, c *client, _ error) {
		root := rp.roots[op]
		if root == nil || c.last.end.IsZero() {
			return
		}
		root.ChildInterval(prefix+"."+op, c.last.begin, c.last.end)
		if t, ok := c.t.(*inprocTarget); ok {
			rp.sizes[op] = append(rp.sizes[op], float64(c.buf.Len()))
			rp.allocMB[op] = append(rp.allocMB[op], t.allocMB)
			rp.gcs[op] = append(rp.gcs[op], float64(t.gcs))
		}
	}
}

// layer times one library call as a child span of op.
func layer(root *obs.Span, name string, fn func()) {
	sp := root.Child(name)
	fn()
	sp.End()
}

// applyMirror is the commit path's library calls on a batch of inserts,
// timed as spans under root when root is non-nil: preview, graph build,
// fingerprint, apply, labels.
func (rp *replay) applyMirror(root *obs.Span, batch []bicc.Edge) error {
	deltas := make([]incr.Delta, len(batch))
	for i, e := range batch {
		deltas[i] = incr.Delta{Op: incr.OpInsert, U: e.U, V: e.V}
	}
	var (
		n     int32
		final []graph.Edge
		g     *bicc.Graph
		err   error
	)
	layer(root, "incr.preview", func() { n, final, err = rp.mirror.Preview(deltas) })
	if err != nil {
		return err
	}
	layer(root, "incr.newgraph", func() { g, err = bicc.NewGraph(int(n), final) })
	if err != nil {
		return err
	}
	layer(root, "service.fingerprint", func() { _ = service.Fingerprint(g) })
	var st *incr.ApplyStats
	layer(root, "incr.apply", func() {
		st, err = rp.mirror.Apply(context.Background(), deltas, incr.Config{}, func(context.Context, *bicc.Graph) (*bicc.Result, error) {
			return nil, fmt.Errorf("absorb-only batch asked for an engine run")
		})
	})
	if err != nil {
		return err
	}
	if st.Mode != incr.ModeAbsorb {
		return fmt.Errorf("mirror batch took the %s path", st.Mode)
	}
	layer(root, "incr.labels", func() { _ = rp.mirror.Labels() })
	rp.mirrorG = g
	return nil
}

// viewsLayer times result-view derivation from labels, as the service does on
// every miss, hit and fresh read.
func viewsLayer(root *obs.Span, g *bicc.Graph, labels []int32, v views) error {
	var res *bicc.Result
	var err error
	layer(root, "views.reconstruct", func() { res, err = bicc.ReconstructResult(g, bicc.FastBCC, labels) })
	if err != nil {
		return err
	}
	if v.articulation {
		layer(root, "views.articulation", func() { _ = res.ArticulationPoints() })
	}
	if v.bridges {
		layer(root, "views.bridges", func() { _ = res.Bridges() })
	}
	if v.components {
		layer(root, "views.components", func() { _ = res.Components() })
	}
	return nil
}

// planLayer times feature extraction on a graph the planner has not seen
// and the frozen decision that follows.
func (rp *replay) planLayer(root *obs.Span, g *bicc.Graph) {
	var f plan.Features
	layer(root, "plan.features", func() { f = bicc.FeaturesFor(rp.planner, g) })
	sp := root.Child("plan.decide")
	d := rp.planner.Decide(f, 0, false)
	sp.SetLabel("engine", d.Engine)
	sp.End()
	rp.decision = fmt.Sprintf("%s@%d", d.Engine, d.Procs)
}

// round runs one step of every workload's sessions, both targets each, then
// times the library calls each operation makes. Each operation kind gets a
// root span op.<op> for the round, labelled with its op id.
func (rp *replay) round(ctx context.Context, r int) {
	rp.roots = map[string]*obs.Span{}
	for _, op := range tracedOps {
		sp := rp.tr.Root("op." + op)
		sp.SetLabel("op_id", fmt.Sprintf("%d/%s", r, op))
		rp.roots[op] = sp
	}
	defer func() {
		for _, sp := range rp.roots {
			sp.End()
		}
		rp.roots = nil
	}()

	// ingest: upload, cold query, delete.
	rp.ingest.step(ctx, rp, 0)
	is := rp.ingest.remote.sess.(*ingestSession)
	in := is.in[(is.cycles-1)%len(is.in)]
	var g *bicc.Graph
	var err error
	layer(rp.roots["upload"], "graph.parse", func() { g, err = bicc.ReadGraph(bytes.NewReader(in.text)) })
	rp.lib.note("graph.parse", err)
	if err != nil {
		return
	}
	layer(rp.roots["upload"], "service.fingerprint", func() { _ = service.Fingerprint(g) })
	rp.planLayer(rp.roots["cold"], g)
	layer(rp.roots["cold"], "graph.csr", func() {
		_ = graph.ToCSR(runtime.GOMAXPROCS(0), &graph.EdgeList{N: int32(g.NumVertices()), Edges: g.Edges()})
	})
	rp.lib.note("views", viewsLayer(rp.roots["cold"], g, in.oracle.res.EdgeComponent, views{articulation: true, bridges: true}))

	// hot: one rotation of client 0, three hits and a dump.
	hs := rp.hot.remote.sess.(*hotSession)
	for range hotRotation {
		op := hotRotation[hs.pos[0]]
		rp.hot.step(ctx, rp, 0)
		v := views{articulation: true, bridges: true}
		if op == "dump" {
			v = views{components: true}
		}
		rp.lib.note("views", viewsLayer(rp.roots[op], hs.in.g, hs.in.oracle.res.EdgeComponent, v))
	}

	// mutate: one absorbed batch, one fresh read.
	rp.mutate.step(ctx, rp, 0)
	ms := rp.mutate.remote.sess.(*mutateSession)
	rp.lib.note("incr", rp.applyMirror(rp.roots["commit"], ms.inserts[len(ms.inserts)-batchSize:]))
	rp.planLayer(rp.roots["fresh"], rp.mirrorG)
	rp.lib.note("views", viewsLayer(rp.roots["fresh"], rp.mirrorG, rp.mirror.Labels(), views{articulation: true}))
}

// engineRows runs every engine at p = 1 and p = GOMAXPROCS on the hot
// graph: the paper's Fig. 3 (total, conversion charged) and Fig. 4 (per
// phase) on this host. Each answer is checked against the oracle's labels.
func (rp *replay) engineRows(ctx context.Context) ([]engineRow, error) {
	in := rp.hot.remote.sess.(*hotSession).in
	var rows []engineRow
	for _, algo := range []bicc.Algorithm{bicc.Sequential, bicc.TVSMP, bicc.TVOpt, bicc.TVFilter, bicc.FastBCC} {
		for _, p := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
			row := engineRow{Engine: algo.String(), Procs: p, Reps: engineReps, PhaseMs: map[string]float64{}}
			var totals []float64
			phases := map[string][]float64{}
			for i := 0; i < engineReps; i++ {
				sctx, sp := obs.StartSpan(obs.ContextWithTrace(ctx, rp.tr), fmt.Sprintf("engine.%s.p%d", algo, p))
				t := time.Now()
				res, err := bicc.BiconnectedComponentsCtx(sctx, in.g, &bicc.Options{Algorithm: algo, Procs: p})
				totals = append(totals, ms(time.Since(t)))
				sp.End()
				if err == nil && !slices.Equal(res.EdgeComponent, in.oracle.res.EdgeComponent) {
					err = fmt.Errorf("labels differ from the sequential oracle")
				}
				rp.lib.note("engine."+algo.String(), err)
				if err != nil {
					if cerr := ctx.Err(); cerr != nil {
						return nil, cerr
					}
					continue
				}
				sum := map[string]float64{}
				for _, ph := range res.Phases {
					sum[ph.Name] += ms(ph.Duration)
				}
				for name, v := range sum {
					phases[name] = append(phases[name], v)
				}
			}
			row.TotalMs = median(totals)
			for name, v := range phases {
				row.PhaseMs[name] = median(v)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// mean suits GC cycles: most operations see none, so a median reads 0.
func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfTimes maps each span name to its self times in milliseconds: a span's
// duration minus the time its direct children cover.
func selfTimes(exp *obs.TraceExport) map[string][]float64 {
	childNs := map[int]int64{}
	for _, s := range exp.Spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.DurationNs
		}
	}
	out := map[string][]float64{}
	for _, s := range exp.Spans {
		self := s.DurationNs - childNs[s.ID]
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// metrics assembles the per-layer metrics: median self time per operation
// for each layer call, exact sizes and counts otherwise.
func (rp *replay) metrics(self map[string][]float64, rows []engineRow, sts []*statsz) map[string]metric {
	m := map[string]metric{}
	msOf := func(span string) float64 { return median(self[span]) }
	for _, name := range []string{"graph.parse", "graph.csr", "service.fingerprint", "plan.features",
		"views.reconstruct", "views.articulation", "views.bridges", "views.components",
		"incr.preview", "incr.newgraph", "incr.apply", "incr.labels"} {
		m[name+"_ms"] = metric{msOf(name), "ms"}
	}
	m["plan.decide_us"] = metric{msOf("plan.decide") * 1000, "us"}
	for _, op := range tracedOps {
		m["service."+op+"_ms"] = metric{msOf("service." + op), "ms"}
		m["transport."+op+"_ms"] = metric{msOf("http."+op) - msOf("service."+op), "ms"}
		m["service."+op+"_bytes"] = metric{median(rp.sizes[op]), "bytes"}
		m["runtime."+op+"_alloc_mb"] = metric{median(rp.allocMB[op]), "MiB"}
		m["runtime."+op+"_gc_cycles"] = metric{mean(rp.gcs[op]), "count"}
	}
	for _, row := range rows {
		p := "p1"
		if row.Procs > 1 {
			p = "pN"
		}
		m[fmt.Sprintf("engine.%s.%s_ms", row.Engine, p)] = metric{row.TotalMs, "ms"}
		if row.Procs > 1 || runtime.GOMAXPROCS(0) == 1 {
			for name, v := range row.PhaseMs {
				m[fmt.Sprintf("engine.%s.%s_ms", row.Engine, strings.ReplaceAll(name, " ", "-"))] = metric{v, "ms"}
			}
		}
	}
	// The counters are summed over the traced run's daemons, one per
	// workload; the hit rate is their cache hits over their queries.
	var hits, queries, computations, fallbacks, explorations, absorbs int64
	for _, st := range sts {
		hits += st.CacheHits
		queries += st.Requests
		computations += st.Computations
		fallbacks += st.Fallbacks
		if st.Plan != nil {
			explorations += st.Plan.Explorations
		}
		if st.Incr != nil {
			absorbs += st.Incr.Absorbs
		}
	}
	m["statsz.cache_hit_rate"] = metric{float64(hits) / float64(max(queries, 1)), "ratio"}
	m["statsz.computations"] = metric{float64(computations), "count"}
	m["statsz.fallbacks"] = metric{float64(fallbacks), "count"}
	m["statsz.plan_explorations"] = metric{float64(explorations), "count"}
	m["statsz.incr_absorb_batches"] = metric{float64(absorbs), "count"}
	return m
}

package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"bicc"
)

// A workload is a closed-loop traffic mix against one bccd. Each times
// exactly two operation types, op1 and op2, each on one input shape, so no
// percentile straddles two kinds of request.
type workload struct {
	op1, op2 string // the operations behind the op1_* and op2_* metrics
	clients  int
	// prepare builds the seeded inputs and their oracles. It runs once per
	// benchmark run, before any bccd is started, and is not part of setup_s.
	prepare func(seed int64) (func() session, error)
}

// session is one workload against one freshly started bccd.
type session interface {
	// setup uploads, fills caches and warms up; it is timed into setup_s.
	setup(ctx context.Context, c *client) error
	// step runs one closed-loop cycle of client worker, recording each
	// operation it sends.
	step(ctx context.Context, c *client, worker int, rec *recorder)
	// verify runs the checks deferred past the timed phase.
	verify() error
	// selfCheck confirms from /statsz that the daemon did what the
	// workload claims, and nothing else.
	selfCheck(st *statsz) []string
}

// workloads are the end-to-end workloads. The mutate session below is not
// one: it could not be made steady on a shared host (see README.md), so only
// the traced run drives it.
var workloads = map[string]*workload{
	"ingest": {op1: "upload", op2: "cold", clients: 1, prepare: prepareIngest},
	"hot":    {op1: "hit", op2: "dump", clients: 2, prepare: prepareHot},
}

// recorder collects per-operation latencies and failures across clients.
type recorder struct {
	start     time.Time
	mu        sync.Mutex
	lat       map[string][]float64 // milliseconds
	at        map[string][]float64 // when each sample started, seconds after start
	attempted int
	failures  []string
	failed    int
	// onRecord, when set, sees every operation as it is recorded.
	onRecord func(op string, c *client, err error)
}

func newRecorder() *recorder {
	return &recorder{start: time.Now(), lat: map[string][]float64{}, at: map[string][]float64{}}
}

// record counts the request c just sent as one op, with its timed interval
// when it succeeded.
func (r *recorder) record(op string, c *client, err error) {
	if r.onRecord != nil {
		r.onRecord(op, c, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(op, err)
		return
	}
	r.lat[op] = append(r.lat[op], ms(c.last.latency()))
	r.at[op] = append(r.at[op], c.last.begin.Sub(r.start).Seconds())
}

// note counts one checked step that has no latency of its own.
func (r *recorder) note(op string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(op, err)
	}
}

func (r *recorder) failLocked(op string, err error) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", op, err))
	}
}

func (r *recorder) failedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// setupErr names the set-up operation that failed.
func setupErr(op string, err error) error {
	if err != nil {
		return fmt.Errorf("set-up %s: %w", op, err)
	}
	return nil
}

// --- ingest ------------------------------------------------------------------

// ingestGraphs is how many distinct graphs the ingest loop rotates through.
const ingestGraphs = 3

type ingestSession struct {
	in     []*input
	cycles int // upload/cold/delete cycles this daemon has seen
}

func prepareIngest(seed int64) (func() session, error) {
	var in []*input
	for i := 0; i < ingestGraphs; i++ {
		x, err := makeInput(seed, i, false)
		if err != nil {
			return nil, err
		}
		in = append(in, x)
	}
	return func() session { return &ingestSession{in: in} }, nil
}

func (s *ingestSession) cycle(ctx context.Context, c *client, rec *recorder) error {
	in := s.in[s.cycles%len(s.in)]
	s.cycles++
	err := c.upload(ctx, in)
	rec.record("upload", c, err)
	if err != nil {
		return err
	}
	_, err = c.query(ctx, in.fp, coldInclude, in.oracle, views{articulation: true}, false)
	rec.record("cold", c, err)
	derr := c.remove(ctx, in.fp)
	rec.record("delete", c, derr)
	if err == nil {
		err = derr
	}
	return err
}

func (s *ingestSession) setup(ctx context.Context, c *client) error {
	// Warm-up: one cycle per graph, checked but not timed.
	warm := newRecorder()
	for range s.in {
		if err := s.cycle(ctx, c, warm); err != nil {
			return setupErr("warm-up", err)
		}
	}
	return nil
}

func (s *ingestSession) step(ctx context.Context, c *client, _ int, rec *recorder) {
	_ = s.cycle(ctx, c, rec) // failures are on rec
}

func (s *ingestSession) verify() error { return nil }

func (s *ingestSession) selfCheck(st *statsz) []string {
	bad := commonSelfChecks(st, int64(s.cycles))
	if st.CacheHits != 0 {
		bad = append(bad, fmt.Sprintf("ingest saw %d cache hits, want 0", st.CacheHits))
	}
	if st.Computations != int64(s.cycles) {
		bad = append(bad, fmt.Sprintf("ingest ran %d computations for %d cold queries", st.Computations, s.cycles))
	}
	return bad
}

// --- hot ---------------------------------------------------------------------

// hotRotation is each hot client's fixed request order: three hits, one dump.
var hotRotation = []string{"hit", "hit", "hit", "dump"}

type hotSession struct {
	in              *input
	refHit, refDump []byte
	pos             [2]int // next rotation index per client
	queries         int64  // /v1/bcc requests sent after the cache fill
	mu              sync.Mutex
}

func prepareHot(seed int64) (func() session, error) {
	in, err := makeInput(seed, 0, true)
	if err != nil {
		return nil, err
	}
	return func() session {
		// The two clients start half a rotation apart.
		return &hotSession{in: in, pos: [2]int{0, len(hotRotation) / 2}}
	}, nil
}

func (s *hotSession) send(ctx context.Context, c *client, op string) error {
	s.mu.Lock()
	s.queries++
	s.mu.Unlock()
	if op == "hit" {
		return c.cachedQuery(ctx, s.in.fp, hitInclude, s.in.oracle, views{articulation: true, bridges: true}, &s.refHit)
	}
	return c.cachedQuery(ctx, s.in.fp, dumpInclude, s.in.oracle, views{components: true}, &s.refDump)
}

func (s *hotSession) setup(ctx context.Context, c *client) error {
	if err := c.upload(ctx, s.in); err != nil {
		return setupErr("upload", err)
	}
	// The only computation of the run: a counts-only query fills the cache.
	if _, err := c.query(ctx, s.in.fp, nil, s.in.oracle, views{}, false); err != nil {
		return setupErr("cache fill", err)
	}
	// One rotation per client, sequentially: the first hit and dump are
	// checked in full and become the byte references for the timed phase.
	for w := range s.pos {
		for range hotRotation {
			op := hotRotation[s.pos[w]]
			s.pos[w] = (s.pos[w] + 1) % len(hotRotation)
			if err := s.send(ctx, c, op); err != nil {
				return setupErr(op, err)
			}
		}
	}
	return nil
}

func (s *hotSession) step(ctx context.Context, c *client, w int, rec *recorder) {
	op := hotRotation[s.pos[w]]
	s.pos[w] = (s.pos[w] + 1) % len(hotRotation)
	rec.record(op, c, s.send(ctx, c, op))
}

func (s *hotSession) verify() error { return nil }

func (s *hotSession) selfCheck(st *statsz) []string {
	bad := commonSelfChecks(st, s.queries+1)
	if st.Computations != 1 {
		bad = append(bad, fmt.Sprintf("hot ran %d computations, want only the set-up's 1", st.Computations))
	}
	if st.CacheHits != s.queries {
		bad = append(bad, fmt.Sprintf("hot saw %d cache hits for %d cached queries", st.CacheHits, s.queries))
	}
	return bad
}

// --- mutate ------------------------------------------------------------------

const batchSize = 16

type mutateSession struct {
	in      *input
	picker  *absorbPicker
	inserts []bicc.Edge // every edge inserted so far, in order
	gen     uint64
	cycles  int
	samples []freshSample
	last    *freshSample
}

// freshSample is one fresh read kept for the post-phase recompute check.
type freshSample struct {
	inserts int // edges inserted when it was read
	cuts    []int32
}

func prepareMutate(seed int64) (func() session, error) {
	in, err := makeInput(seed, 0, false)
	if err != nil {
		return nil, err
	}
	return func() session {
		return &mutateSession{in: in, picker: newAbsorbPicker(in, graphSeed(seed, 1))}
	}, nil
}

// cycle sends one batch and reads the new generation once. Every batch is
// absorbed into the largest block, so blocks, cut vertices and bridges stay
// the base graph's: each fresh read is checked against the base oracle,
// and sampled ones again against a recompute after the timed phase.
func (s *mutateSession) cycle(ctx context.Context, c *client, rec *recorder) error {
	batch := s.picker.batch(batchSize)
	s.inserts = append(s.inserts, batch...)
	s.gen++
	err := c.commit(ctx, s.in.fp, batch, s.gen, s.in.g.NumEdges()+len(s.inserts))
	rec.record("commit", c, err)
	if err != nil {
		return err
	}
	b, err := c.query(ctx, s.in.fp, coldInclude, s.in.oracle, views{articulation: true}, false)
	if err == nil && !b.Incr {
		err = fmt.Errorf("fresh read was not served from incremental state")
	}
	rec.record("fresh", c, err)
	if err != nil {
		return err
	}
	s.cycles++
	smp := freshSample{inserts: len(s.inserts), cuts: b.Articulation}
	s.last = &smp
	if s.cycles&(s.cycles-1) == 0 { // cycles 1, 2, 4, 8, ...
		s.samples = append(s.samples, smp)
	}
	return nil
}

func (s *mutateSession) setup(ctx context.Context, c *client) error {
	if err := c.upload(ctx, s.in); err != nil {
		return setupErr("upload", err)
	}
	// The seeding batch pays the one engine run that builds the maintained
	// state; every later batch is absorbed.
	warm := newRecorder()
	for i := 0; i < 3; i++ {
		if err := s.cycle(ctx, c, warm); err != nil {
			return setupErr("warm-up", err)
		}
	}
	s.samples, s.cycles = nil, 0
	return nil
}

func (s *mutateSession) step(ctx context.Context, c *client, _ int, rec *recorder) {
	_ = s.cycle(ctx, c, rec) // failures are on rec
}

// verify recomputes sampled generations from the client's own edge list.
func (s *mutateSession) verify() error {
	checks := s.samples
	if s.last != nil {
		checks = append(checks, *s.last)
	}
	base := s.in.g.Edges()
	for _, smp := range checks {
		edges := append(slices.Clip(base), s.inserts[:smp.inserts]...)
		g, err := bicc.NewGraph(s.in.g.NumVertices(), edges)
		if err != nil {
			return fmt.Errorf("rebuilding generation with %d inserts: %w", smp.inserts, err)
		}
		o, err := newOracle(g, false)
		if err != nil {
			return err
		}
		if !slices.Equal(o.cuts, smp.cuts) {
			return fmt.Errorf("fresh read after %d inserts: articulation points differ from a recompute", smp.inserts)
		}
	}
	return nil
}

func (s *mutateSession) selfCheck(st *statsz) []string {
	bad := commonSelfChecks(st, int64(s.gen))
	if st.Incr == nil || st.Incr.Batches != int64(s.gen) || st.Incr.Absorbs != st.Incr.Batches {
		bad = append(bad, fmt.Sprintf("mutate sent %d batches, /statsz incr section %+v: want every batch absorbed", s.gen, st.Incr))
	}
	if st.Computations != 1 {
		bad = append(bad, fmt.Sprintf("mutate ran %d computations, want only the seeding batch's 1", st.Computations))
	}
	return bad
}

// commonSelfChecks hold on every workload: the frozen planner never
// explores, no engine falls back, and no request was refused.
func commonSelfChecks(st *statsz, queries int64) []string {
	var bad []string
	if st.Plan == nil || st.Plan.Mode != "frozen" || st.Plan.Explorations != 0 {
		bad = append(bad, fmt.Sprintf("planner not frozen or explored: %+v", st.Plan))
	}
	if st.Fallbacks != 0 || st.EnginePanics != 0 {
		bad = append(bad, fmt.Sprintf("%d fallbacks, %d engine panics", st.Fallbacks, st.EnginePanics))
	}
	if st.Rejected != 0 {
		bad = append(bad, fmt.Sprintf("%d requests rejected by admission", st.Rejected))
	}
	if st.Requests != queries {
		bad = append(bad, fmt.Sprintf("/statsz counts %d queries, the client sent %d", st.Requests, queries))
	}
	return bad
}

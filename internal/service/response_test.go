package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bicc"
	"bicc/internal/durable"
)

// viewGraph is a sparse connected graph on which all four include views are
// non-empty, so "the view is absent" can only mean "not asked for".
func viewGraph(t *testing.T, seed int64) *bicc.Graph {
	t.Helper()
	g, err := bicc.RandomConnectedGraph(120, 150, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// oracleViews is every include view of g, from an uncached library run of
// the sequential engine.
func oracleViews(t *testing.T, g *bicc.Graph) (resultViews, *bicc.Result) {
	t.Helper()
	r, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	bt := r.BlockCutTree()
	v := resultViews{
		ArticulationPoints: r.ArticulationPoints(),
		Bridges:            r.Bridges(),
		Components:         r.Components(),
		BlockCut: &blockCutJSON{
			NumBlocks:   bt.NumBlocks(),
			NumNodes:    bt.NumNodes(),
			NumEdges:    bt.NumTreeEdges(),
			CutVertices: bt.CutVertices(),
			LeafBlocks:  bt.LeafBlocks(),
		},
	}
	if len(v.ArticulationPoints) == 0 || len(v.Bridges) == 0 || len(v.Components) == 0 {
		t.Fatalf("graph has an empty view: %d cuts, %d bridges, %d blocks",
			len(v.ArticulationPoints), len(v.Bridges), len(v.Components))
	}
	return v, r
}

// includeNames is the include list of the mask'th include set: bit i set
// means the i'th view, in response field order.
func includeNames(mask int) []string {
	var names []string
	for i, name := range []string{"articulation", "bridges", "components", "blockcut"} {
		if mask&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return names
}

// onlyViews keeps the views of all that the mask'th include set names.
func onlyViews(all resultViews, mask int) resultViews {
	var v resultViews
	if mask&1 != 0 {
		v.ArticulationPoints = all.ArticulationPoints
	}
	if mask&2 != 0 {
		v.Bridges = all.Bridges
	}
	if mask&4 != 0 {
		v.Components = all.Components
	}
	if mask&8 != 0 {
		v.BlockCut = all.BlockCut
	}
	return v
}

// bccQuery is one /v1/bcc request of the differential tests.
type bccQuery struct {
	mask           int
	trace, explain bool
}

func (q bccQuery) String() string {
	return fmt.Sprintf("include=%v trace=%v explain=%v", includeNames(q.mask), q.trace, q.explain)
}

// allQueries is every include set, plain and with ?trace=1 and ?explain=1.
func allQueries() []bccQuery {
	var qs []bccQuery
	for mask := 0; mask < 16; mask++ {
		qs = append(qs, bccQuery{mask: mask}, bccQuery{mask: mask, trace: true}, bccQuery{mask: mask, explain: true})
	}
	return qs
}

// ask sends q for fp and returns the body; safe to call from any goroutine.
func ask(ts *httptest.Server, fp string, q bccQuery) ([]byte, error) {
	body, err := json.Marshal(bccRequest{Graph: fp, Algorithm: "sequential", Include: includeNames(q.mask)})
	if err != nil {
		return nil, err
	}
	url := ts.URL + "/v1/bcc"
	switch {
	case q.trace:
		url += "?trace=1"
	case q.explain:
		url += "?explain=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return data, nil
}

// checkBody requires body to be exactly json.Marshal of the bccResponse
// equivalent to q's answer, followed by a newline: the counts and the views
// q names from the uncached oracle, the engine's metadata (elapsed time,
// phases, flags, trace, plan echo) as the body reports it, nothing else.
func checkBody(body []byte, fp string, q bccQuery, all resultViews, oracle *bicc.Result) (bccResponse, error) {
	var got bccResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return got, fmt.Errorf("decoding: %v: %s", err, body)
	}
	if got.Algorithm != "sequential" || got.NumComponents != oracle.NumComponents ||
		got.NumArticulation != len(all.ArticulationPoints) || got.NumBridges != len(all.Bridges) {
		return got, fmt.Errorf("counts differ from the oracle: %s", body)
	}
	if (got.Plan != nil) != q.explain {
		return got, fmt.Errorf("plan echo present = %v: %s", got.Plan != nil, body)
	}
	if !q.trace && got.Trace != nil {
		return got, fmt.Errorf("trace without ?trace=1: %s", body)
	}
	want := bccResponse{
		resultHead:  got.resultHead,
		resultViews: onlyViews(all, q.mask),
		resultTail:  got.resultTail,
		requestEcho: requestEcho{Graph: fp, Cached: got.Cached, Plan: got.Plan},
	}
	wantBody, err := json.Marshal(want)
	if err != nil {
		return got, err
	}
	if !bytes.Equal(body, append(wantBody, '\n')) {
		return got, fmt.Errorf("body is not json.Marshal of the equivalent response\n got: %s\nwant: %s", body, wantBody)
	}
	return got, nil
}

// askAll sends every query of qs concurrently and checks each answer,
// returning the decoded answers in qs order. It reports failures with
// t.Errorf, so it may run off the test goroutine; the caller stops the test.
func askAll(t *testing.T, ts *httptest.Server, fp string, qs []bccQuery, all resultViews, oracle *bicc.Result) []bccResponse {
	t.Helper()
	out := make([]bccResponse, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := ask(ts, fp, q)
			if err == nil {
				out[i], err = checkBody(body, fp, q, all, oracle)
			}
			if err != nil {
				t.Errorf("%s: %v", q, err)
			}
		}()
	}
	wg.Wait()
	return out
}

// mustAskAll is askAll on the test goroutine, stopping the test on failure.
func mustAskAll(t *testing.T, ts *httptest.Server, fp string, qs []bccQuery, all resultViews, oracle *bicc.Result) []bccResponse {
	t.Helper()
	out := askAll(t, ts, fp, qs, all, oracle)
	if t.Failed() {
		t.FailNow()
	}
	return out
}

// TestCachedViewsFollowIncludeSet is the regression test for views leaking
// across include sets: the cache is keyed without the include set, and a
// hit used to answer with every view stored by whichever query created the
// entry. Each include set creates an entry once; every include set then
// reads it.
func TestCachedViewsFollowIncludeSet(t *testing.T) {
	g := viewGraph(t, 5)
	all, oracle := oracleViews(t, g)
	for creator := 0; creator < 16; creator++ {
		_, ts := newTestServer(t, Config{})
		fp := uploadGraph(t, ts, g, "").Fingerprint
		first := bccQuery{mask: creator}
		body, err := ask(ts, fp, first)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkBody(body, fp, first, all, oracle); err != nil {
			t.Fatalf("creator %s: %v", first, err)
		}
		for mask := 0; mask < 16; mask++ {
			q := bccQuery{mask: mask}
			body, err := ask(ts, fp, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := checkBody(body, fp, q, all, oracle)
			if err != nil {
				t.Fatalf("entry created by %s, read by %s: %v", first, q, err)
			}
			if !got.Cached {
				t.Fatalf("read by %s after %s was not a cache hit", q, first)
			}
		}
	}
}

// TestBCCResponsesAllPaths hits one cache entry from many goroutines at
// once with every include set, plain and with ?trace=1 and ?explain=1, on
// each path an answer can take: miss, coalesced, hit, spilled then
// promoted, and served from incremental state after a mutation. Every body
// must be json.Marshal of the equivalent response and carry the uncached
// oracle's views. Run under -race it checks the per-entry fragment memo.
func TestBCCResponsesAllPaths(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	cfg := Config{
		CacheEntries: 1,
		Compute: func(ctx context.Context, g *bicc.Graph, opt *bicc.Options) (*bicc.Result, error) {
			<-gate
			return bicc.BiconnectedComponentsCtx(ctx, g, opt)
		},
	}
	s, _ := durableServer(t, cfg, DurabilityConfig{Dir: t.TempDir()})
	ts := newHTTPServer(t, s)
	g := viewGraph(t, 11)
	all, oracle := oracleViews(t, g)
	fp := uploadGraph(t, ts, g, "").Fingerprint
	qs := allQueries()

	// Miss and coalesced: the engine holds until every query waits on it.
	waiters := func() int {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		for _, e := range s.cache.entries {
			if !e.done {
				return e.waiters
			}
		}
		return 0
	}
	done := make(chan []bccResponse)
	go func() { done <- askAll(t, ts, fp, qs, all, oracle) }()
	deadline := time.Now().Add(10 * time.Second)
	for waiters() < len(qs) {
		if time.Now().After(deadline) {
			open()
			<-done
			t.Fatalf("only %d of %d queries joined the computation", waiters(), len(qs))
		}
		time.Sleep(time.Millisecond)
	}
	open()
	first := <-done
	if t.Failed() {
		t.FailNow()
	}
	for i, got := range first {
		if got.Cached {
			t.Fatalf("%s: cached on the miss/coalesced pass", qs[i])
		}
	}
	if snap := s.Snapshot(); snap.CacheMisses != 1 || snap.Coalesced != int64(len(qs)-1) || snap.Computations != 1 {
		t.Fatalf("after the first pass: %+v", snap)
	}

	// Hit.
	for i, got := range mustAskAll(t, ts, fp, qs, all, oracle) {
		if !got.Cached {
			t.Fatalf("%s: not cached on the hit pass", qs[i])
		}
	}

	// Spilled then promoted: another graph's entry demotes this one (the
	// cache holds one), and the next queries promote it from disk.
	g2 := viewGraph(t, 12)
	if _, err := ask(ts, uploadGraph(t, ts, g2, "").Fingerprint, bccQuery{}); err != nil {
		t.Fatal(err)
	}
	spill := s.dur.Load().spill
	hits := spill.Hits()
	for i, got := range mustAskAll(t, ts, fp, qs, all, oracle) {
		if !got.Cached {
			t.Fatalf("%s: not cached on the promoted pass", qs[i])
		}
	}
	if spill.Hits() == hits {
		t.Fatal("the promoted pass did not read the spill tier")
	}
	if snap := s.Snapshot(); snap.Computations != 2 {
		t.Fatalf("computations = %d, want 2 (promotion must not recompute)", snap.Computations)
	}

	// Served from incremental state: a mutation hanging a new vertex off
	// vertex 0 (a new bridge), then the same queries on the new generation.
	n := int32(g.NumVertices())
	mustMutate(t, ts, fp, []mutationDelta{{Op: "insert", U: 0, V: n}})
	edges := append(append([]bicc.Edge(nil), g.Edges()...), bicc.Edge{U: 0, V: n})
	mg, err := bicc.NewGraph(int(n)+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	mall, moracle := oracleViews(t, mg)
	for i, got := range mustAskAll(t, ts, fp, qs, mall, moracle) {
		if !got.Incr {
			t.Fatalf("%s: not served from incremental state", qs[i])
		}
	}
}

// TestPromoteDecodesLegacySpillRecord: records spilled by builds that kept
// encoded views on the cached entry still promote, and their answers carry
// exactly the views asked for.
func TestPromoteDecodesLegacySpillRecord(t *testing.T) {
	s, _ := durableServer(t, Config{}, DurabilityConfig{Dir: t.TempDir()})
	ts := newHTTPServer(t, s)
	g := viewGraph(t, 13)
	all, oracle := oracleViews(t, g)
	fp := uploadGraph(t, ts, g, "").Fingerprint
	view, err := json.Marshal(struct {
		resultHead
		resultViews
		resultTail
	}{
		resultHead:  resultHead{Algorithm: "sequential", NumComponents: oracle.NumComponents, NumArticulation: len(all.ArticulationPoints), NumBridges: len(all.Bridges), ElapsedNs: 1},
		resultViews: all,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.dur.Load().spill.Put(durable.ResultRecord{
		FP: fp, Algorithm: "sequential", Procs: 0, EdgeComponent: oracle.EdgeComponent, View: view,
	}); err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 16; mask++ {
		q := bccQuery{mask: mask}
		body, err := ask(ts, fp, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := checkBody(body, fp, q, all, oracle)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !got.Cached {
			t.Fatalf("%s: legacy record not served from the cache", q)
		}
	}
	if c := s.Snapshot().Computations; c != 0 {
		t.Fatalf("computations = %d, want 0", c)
	}
}

// TestResultCacheChargesFragments: the cache's byte count grows by exactly
// each fragment's length as it is built, once, only while the entry is
// resident; growth enforces the byte budget; eviction and DropGraph return
// the count to zero.
func TestResultCacheChargesFragments(t *testing.T) {
	g := testGraph(t)
	r, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	keyA := resultKey{fp: "a", algo: bicc.Sequential}
	keyB := resultKey{fp: "b", algo: bicc.Sequential}
	insert := func(c *ResultCache, key resultKey) *queryResult {
		t.Helper()
		qr := newQueryResult(r)
		got, err, _ := c.Do(context.Background(), key, func(context.Context) (*queryResult, error) { return qr, nil })
		if err != nil || got != qr {
			t.Fatalf("Do: %v", err)
		}
		return qr
	}
	build := func(c *ResultCache, qr *queryResult, f frag) int64 {
		t.Helper()
		b, err := c.fragment(qr, f, func() ([]byte, error) { return buildFragment(qr, g, f) })
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(b))
	}

	c := NewResultCache(1)
	a := insert(c, keyA)
	seeded := int64(len(a.memo.frag[fragArticulation]) + len(a.memo.frag[fragBridges]))
	want := 512 + 4*int64(len(a.edgeComp)) + seeded
	if seeded == 0 || c.Bytes() != want {
		t.Fatalf("after insertion: bytes = %d, want %d (seeded fragments %d)", c.Bytes(), want, seeded)
	}
	for _, f := range []frag{fragHead, fragComponents, fragBlockCut, fragTail, fragTrace} {
		want += build(c, a, f)
		if c.Bytes() != want {
			t.Fatalf("after fragment %d: bytes = %d, want %d", f, c.Bytes(), want)
		}
	}
	build(c, a, fragComponents) // built once: asking again adds nothing
	if c.Bytes() != want {
		t.Fatalf("a rebuilt fragment was charged again: bytes = %d, want %d", c.Bytes(), want)
	}

	// Eviction: b displaces a, and a's later fragments are charged nowhere.
	b := insert(c, keyB)
	if c.Len() != 1 || c.Bytes() != resultBytes(b) {
		t.Fatalf("after eviction: %d entries, %d bytes, want 1 and %d", c.Len(), c.Bytes(), resultBytes(b))
	}
	a2 := newQueryResult(r)
	build(c, a2, fragComponents) // a result the cache never held
	if c.Bytes() != resultBytes(b) {
		t.Fatalf("an unresident result was charged: %d bytes", c.Bytes())
	}
	c.DropGraph("b")
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatalf("after DropGraph: %d entries, %d bytes", c.Len(), c.Bytes())
	}
	build(c, b, fragComponents)
	if c.Bytes() != 0 {
		t.Fatalf("a dropped entry was charged: %d bytes", c.Bytes())
	}

	// The byte budget holds through growth: building b's components pushes
	// the cache over, and the least recent entry goes.
	c = NewResultCache(4)
	insert(c, keyA)
	b = insert(c, keyB)
	c.SetDurable(nil, c.Bytes())
	build(c, b, fragComponents)
	if c.Len() != 1 || c.Bytes() != resultBytes(b) {
		t.Fatalf("after growth past the budget: %d entries, %d bytes, want 1 and %d", c.Len(), c.Bytes(), resultBytes(b))
	}
	c.DropGraph("b")
	if c.Bytes() != 0 {
		t.Fatalf("after DropGraph: %d bytes", c.Bytes())
	}
}

// TestResultCacheBytesExportedWithoutDisk: the result cache's resident size
// is on /metrics in every mode, not only with a data directory.
func TestResultCacheBytesExportedWithoutDisk(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fp := uploadGraph(t, ts, viewGraph(t, 5), "").Fingerprint
	if _, err := ask(ts, fp, bccQuery{mask: 15}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range bytes.Split(data, []byte("\n")) {
		if bytes.HasPrefix(l, []byte("bicc_result_cache_mem_bytes ")) {
			lines = append(lines, string(l))
		}
	}
	if len(lines) != 1 || lines[0] == "bicc_result_cache_mem_bytes 0" {
		t.Fatalf("bicc_result_cache_mem_bytes samples = %q, want one non-zero", lines)
	}
}

package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"bicc"
	"bicc/internal/durable"
	"bicc/internal/obs"
	"bicc/internal/shard"
)

// ShardingConfig wires a Server to the shard-by-component query layer:
// decompose once, then route per-block queries (articulation membership,
// block lookups by vertex, block subgraphs) to per-shard state instead of
// re-serving the monolithic result.
type ShardingConfig struct {
	// MemBudget bounds the resident bytes of shard state; past it,
	// least-recently-used shards demote to the spill tier (or, diskless,
	// whole sets drop and rebuild on demand). <= 0 means unlimited.
	MemBudget int64
	// SpillDir is the disk tier for demoted shards; "" keeps sharding
	// memory-only.
	SpillDir string
	// SpillBudget bounds the disk bytes of spilled shard state; <= 0 means
	// unlimited.
	SpillBudget int64
}

// shardState is a Server's live sharding machinery, held through an atomic
// pointer so the disabled path costs one nil check and the /statsz and
// /metrics output of a non-sharded server is byte-identical to older
// builds.
type shardState struct {
	mgr   *shard.Manager
	spill *durable.BlobSpill

	queries   *obs.Counter   // per-block queries received
	fallbacks *obs.Counter   // answered via the monolithic fallback path
	latency   *obs.Histogram // end-to-end shard-query latency
}

// EnableSharding builds the shard manager (and, with a SpillDir, its disk
// tier), registers the shard metrics, and switches the per-block endpoints
// from 404 to live routing. Call before serving requests; a second call is
// an error.
func (s *Server) EnableSharding(cfg ShardingConfig) error {
	if s.shards.Load() != nil {
		return fmt.Errorf("service: sharding already enabled")
	}
	st := &shardState{mgr: shard.NewManager(cfg.MemBudget)}
	if cfg.SpillDir != "" {
		sp, _, err := durable.OpenBlobSpill(cfg.SpillDir, cfg.SpillBudget)
		if err != nil {
			return err
		}
		st.spill = sp
		st.mgr.SetSpill(blobShardTier{sp})
	}
	st.register(s.metrics)
	s.shards.Store(st)
	return nil
}

// register exposes the shard layer on the server's metrics registry. These
// series exist only when sharding is enabled.
func (st *shardState) register(reg *obs.Registry) {
	st.queries = reg.Counter("bicc_shard_queries_total",
		"Per-block queries received by the shard endpoints.")
	st.fallbacks = reg.Counter("bicc_shard_fallbacks_total",
		"Shard queries answered by the monolithic fallback path.")
	st.latency = reg.Histogram("bicc_shard_request_seconds",
		"End-to-end latency of shard-routed per-block queries.")
	m := st.mgr
	reg.CounterVec("bicc_shard_builds_total",
		"Shard sets built from a completed decomposition.").Func(m.Builds)
	reg.CounterVec("bicc_shard_build_failures_total",
		"Shard-set builds that failed (fault, cancellation, or panic).").Func(m.BuildFailures)
	reg.CounterVec("bicc_shard_recovered_total",
		"Shard sets recovered from a spilled routing index.").Func(m.Recovered)
	reg.CounterVec("bicc_shard_demotions_total",
		"Shards demoted to the spill tier for memory budget.").Func(m.Demotions)
	reg.CounterVec("bicc_shard_promotions_total",
		"Shards promoted back from the spill tier.").Func(m.Promotions)
	reg.CounterVec("bicc_shard_promote_failures_total",
		"Shard promotions rejected (missing, torn, or stale spilled state).").Func(m.PromoteFailures)
	reg.CounterVec("bicc_shard_invalidations_total",
		"Shard sets dropped wholesale (untrusted spill state or deletion).").Func(m.Invalidations)
	reg.GaugeFunc("bicc_shard_sets",
		"Shard sets resident in the manager.",
		func() float64 { return float64(m.Sets()) })
	reg.GaugeFunc("bicc_shard_resident_shards",
		"Individual shards currently held in memory.",
		func() float64 { return float64(m.ResidentShards()) })
	reg.GaugeFunc("bicc_shard_bytes",
		"Estimated resident bytes of shard state (indexes + shards).",
		func() float64 { return float64(m.Bytes()) })
	if sp := st.spill; sp != nil {
		reg.GaugeFunc("bicc_shard_spill_entries",
			"Shard payloads resident in the shard spill tier.",
			func() float64 { return float64(sp.Len()) })
		reg.GaugeFunc("bicc_shard_spill_bytes",
			"Disk bytes held by spilled shard state.",
			func() float64 { return float64(sp.Bytes()) })
		reg.CounterVec("bicc_shard_spill_writes_total",
			"Shard payloads written to the spill tier.").Func(sp.Writes)
		reg.CounterVec("bicc_shard_spill_hits_total",
			"Shard payloads read back from the spill tier.").Func(sp.Hits)
		reg.CounterVec("bicc_shard_spill_corrupt_total",
			"Spilled shard payloads dropped on CRC or decode failure.").Func(sp.Corrupt)
	}
}

// blobShardTier adapts the durable blob spill to the shard manager's
// SpillTier interface. Keys compose the decomposition key with a suffix so
// the routing index and each block's payload land in distinct files.
type blobShardTier struct{ sp *durable.BlobSpill }

func shardBlockKey(fp string, block int32) string {
	return fp + "-s" + strconv.Itoa(int(block))
}

func (t blobShardTier) PutIndex(fp string, payload []byte) error { return t.sp.Put(fp+"-idx", payload) }
func (t blobShardTier) GetIndex(fp string) ([]byte, bool)        { return t.sp.Get(fp + "-idx") }
func (t blobShardTier) RemoveIndex(fp string)                    { t.sp.Remove(fp + "-idx") }
func (t blobShardTier) PutShard(fp string, block int32, payload []byte) error {
	return t.sp.Put(shardBlockKey(fp, block), payload)
}
func (t blobShardTier) GetShard(fp string, block int32) ([]byte, bool) {
	return t.sp.Get(shardBlockKey(fp, block))
}
func (t blobShardTier) RemoveShard(fp string, block int32) {
	t.sp.Remove(shardBlockKey(fp, block))
}

// degradedResultError carries a correct-but-degraded decomposition out of a
// shard build: degraded results are never installed as shard state (the
// same rule the result cache applies), but the answer they hold is still
// served — through the monolithic path, marked degraded.
type degradedResultError struct {
	res   *bicc.Result
	cause string
}

func (e *degradedResultError) Error() string {
	return "shard build skipped for degraded result: " + e.cause
}

// --- request plumbing ------------------------------------------------------

// shardQuery is one resolved per-block request: either a shard set to route
// into (set != nil) or a monolithic decomposition to fall back on (res !=
// nil, with the tree built lazily). Exactly one of the two is populated.
type shardQuery struct {
	st    *shardState
	fp    string
	key   string // fp[@gen]-algorithm-procs, the manager and spill key
	gen   uint64
	algo  bicc.Algorithm
	procs int
	g     *bicc.Graph

	set           *shard.Set
	res           *bicc.Result
	tree          *bicc.BlockCutTree
	degradedCause string
}

// algorithm names the engine whose block numbering the answer uses.
func (q *shardQuery) algorithm() string {
	if q.set != nil {
		return q.set.Algorithm
	}
	return q.res.Algorithm.String()
}

// blockTree lazily assembles the monolithic block-cut tree on the fallback
// path.
func (q *shardQuery) blockTree() *bicc.BlockCutTree {
	if q.tree == nil {
		q.tree = q.res.BlockCutTree()
	}
	return q.tree
}

func (q *shardQuery) numBlocks() int {
	if q.set != nil {
		return q.set.NumBlocks
	}
	return q.res.NumComponents
}

// meta is the response envelope shared by all shard endpoints.
func (q *shardQuery) meta() shardMeta {
	return shardMeta{
		Graph:         q.fp,
		Algorithm:     q.algorithm(),
		Sharded:       q.set != nil,
		Degraded:      q.degradedCause != "",
		DegradedCause: q.degradedCause,
	}
}

type shardMeta struct {
	Graph     string `json:"graph"`
	Algorithm string `json:"algorithm"`
	// Sharded reports which path answered: true means per-shard state,
	// false means the monolithic fallback.
	Sharded       bool   `json:"sharded"`
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
}

// resolveShard parses the common query parameters (graph, algorithm, procs,
// timeout_ms), acquires the graph, and obtains the shard set — building it
// at most once across concurrent callers — or the monolithic fallback when
// the build cannot produce trustworthy shard state. It reports ok=false
// after writing the error response itself. done must be called exactly once
// when ok.
func (s *Server) resolveShard(w http.ResponseWriter, r *http.Request) (q *shardQuery, ctx context.Context, done func(), ok bool) {
	st := s.shards.Load()
	if st == nil {
		writeError(w, http.StatusNotFound, "sharding is disabled (start bccd with -shard)")
		return nil, nil, nil, false
	}
	st.queries.Add(1)
	params := r.URL.Query()
	fp := params.Get("graph")
	if fp == "" {
		writeError(w, http.StatusBadRequest, "missing graph parameter (a fingerprint from /v1/graphs)")
		return nil, nil, nil, false
	}
	algo, err := parseAlgorithm(params.Get("algorithm"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, nil, false
	}
	procs := 0
	if ps := params.Get("procs"); ps != "" {
		procs, err = strconv.Atoi(ps)
		if err != nil || procs < 0 {
			writeError(w, http.StatusBadRequest, "bad procs %q", ps)
			return nil, nil, nil, false
		}
	}
	g, info, okG := s.registry.AcquireInfo(fp)
	if !okG {
		writeError(w, http.StatusNotFound, "no graph %q (upload it via POST /v1/graphs first)", fp)
		return nil, nil, nil, false
	}
	timeout := s.cfg.DefaultTimeout
	if ts := params.Get("timeout_ms"); ts != "" {
		if ms, err := strconv.ParseInt(ts, 10, 64); err == nil && ms > 0 {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	cctx, cancel := context.WithTimeout(r.Context(), timeout)
	release := func() { cancel(); s.registry.Release(fp) }

	q = &shardQuery{
		st: st, fp: fp, gen: info.Generation, algo: algo, procs: procs, g: g,
		key: resultKey{fp: fp, gen: info.Generation, algo: algo, procs: procs}.durableKey(),
	}
	if !s.routeShard(w, cctx, q) {
		release()
		return nil, nil, nil, false
	}
	return q, cctx, release, true
}

// routeShard fills q with either the shard set or the monolithic fallback,
// writing the error response itself when neither is possible.
func (s *Server) routeShard(w http.ResponseWriter, ctx context.Context, q *shardQuery) bool {
	set, err := q.st.mgr.Do(ctx, q.key, func(bctx context.Context) (*shard.Set, error) {
		// A mutated graph's maintained labels build the shard set directly —
		// no engine run, no degradation risk.
		if res, ok := s.incrReconstruct(q.fp, q.g, q.algo, q.procs); ok {
			return shard.BuildSet(bctx, q.key, q.g, res)
		}
		res, _, routedCause, err := s.runEngine(bctx, q.g, q.algo, q.procs)
		if err != nil {
			return nil, err
		}
		if res.Degraded || routedCause != "" {
			cause := routedCause
			if res.Degraded && res.DegradedCause != nil {
				cause = res.DegradedCause.Error()
			}
			return nil, &degradedResultError{res: res, cause: cause}
		}
		return shard.BuildSet(bctx, q.key, q.g, res)
	})
	if err == nil {
		q.set = set
		return true
	}

	// The build did not yield shard state. A degraded decomposition still
	// answers the query (through the monolithic view, marked degraded); a
	// caller-side cancellation or a full queue maps to the same statuses as
	// /v1/bcc; anything else — an injected fault at shard.build, a contained
	// panic — falls back to the monolithic cached path so the query is
	// degraded, never dead.
	var de *degradedResultError
	if errors.As(err, &de) {
		q.st.fallbacks.Add(1)
		q.res = de.res
		q.degradedCause = de.cause
		return true
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		s.stats.Rejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, http.StatusTooManyRequests, "admission queue full, retry later")
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.stats.Canceled.Add(1)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, http.StatusServiceUnavailable, "query did not finish in time: %v", err)
		return false
	}
	q.st.fallbacks.Add(1)
	if !s.monolithicFallback(w, ctx, q) {
		return false
	}
	q.degradedCause = err.Error()
	return true
}

// monolithicFallback serves q from the monolithic result-cache path — the
// exact machinery /v1/bcc uses — reconstructing a Result from the cached
// labels. Degraded engine output stays uncached there too, so a faulting
// shard build can never poison either cache.
func (s *Server) monolithicFallback(w http.ResponseWriter, ctx context.Context, q *shardQuery) bool {
	key := resultKey{fp: q.fp, gen: q.gen, algo: q.algo, procs: q.procs}
	qres, err, _ := s.cache.Do(ctx, key, func(cctx context.Context) (*queryResult, error) {
		if qr, ok := s.incrServe(q.fp, q.g, q.algo, q.procs); ok {
			return qr, nil
		}
		return s.compute(cctx, q.g, q.algo, q.procs)
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeError(w, http.StatusTooManyRequests, "admission queue full, retry later")
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeError(w, http.StatusServiceUnavailable, "query did not finish in time: %v", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return false
	}
	algo, aerr := parseAlgorithm(qres.Algorithm)
	if aerr != nil {
		writeError(w, http.StatusInternalServerError, "fallback result: %v", aerr)
		return false
	}
	res, rerr := bicc.ReconstructResult(q.g, algo, qres.edgeComp)
	if rerr != nil {
		writeError(w, http.StatusInternalServerError, "fallback result: %v", rerr)
		return false
	}
	q.res = res
	return true
}

// --- endpoints -------------------------------------------------------------

type vertexBlocksResponse struct {
	shardMeta
	Vertex int32   `json:"vertex"`
	Blocks []int32 `json:"blocks"`
	IsCut  bool    `json:"is_cut"`
}

// handleVertexBlocks serves GET /v1/vertex/{v}/blocks?graph=fp: the ids of
// the biconnected components containing v, answered from the routing index
// without touching any per-block payload.
func (s *Server) handleVertexBlocks(w http.ResponseWriter, r *http.Request) {
	q, _, done, ok := s.resolveShard(w, r)
	if !ok {
		return
	}
	defer done()
	defer q.observeLatency(time.Now())
	v, ok := parseVertex(w, r, q.g)
	if !ok {
		return
	}
	var blocks []int32
	if q.set != nil {
		blocks = q.set.BlocksOfVertex(v)
	} else {
		blocks = q.blockTree().BlocksOfVertex(v)
	}
	writeJSON(w, http.StatusOK, vertexBlocksResponse{
		shardMeta: q.meta(),
		Vertex:    v,
		Blocks:    blocks,
		IsCut:     len(blocks) >= 2,
	})
}

type articulationResponse struct {
	shardMeta
	Vertex       int32 `json:"vertex"`
	Articulation bool  `json:"articulation"`
	// NumBlocksContaining is the number of blocks containing the vertex
	// (>= 2 exactly for articulation points, 0 for isolated vertices).
	NumBlocksContaining int `json:"num_blocks_containing"`
}

// handleVertexArticulation serves GET /v1/vertex/{v}/articulation?graph=fp:
// articulation membership read straight off the routing index.
func (s *Server) handleVertexArticulation(w http.ResponseWriter, r *http.Request) {
	q, _, done, ok := s.resolveShard(w, r)
	if !ok {
		return
	}
	defer done()
	defer q.observeLatency(time.Now())
	v, ok := parseVertex(w, r, q.g)
	if !ok {
		return
	}
	var nb int
	if q.set != nil {
		nb = len(q.set.BlocksOfVertex(v))
	} else {
		nb = len(q.blockTree().BlocksOfVertex(v))
	}
	writeJSON(w, http.StatusOK, articulationResponse{
		shardMeta:           q.meta(),
		Vertex:              v,
		Articulation:        nb >= 2,
		NumBlocksContaining: nb,
	})
}

type subgraphJSON struct {
	N         int32      `json:"n"`
	Edges     [][2]int32 `json:"edges"`
	VertexMap []int32    `json:"vertex_map"`
	EdgeMap   []int32    `json:"edge_map"`
}

type blockResponse struct {
	shardMeta
	Block       int32         `json:"block"`
	NumBlocks   int           `json:"num_blocks"`
	NumVertices int           `json:"num_vertices"`
	NumEdges    int           `json:"num_edges"`
	Vertices    []int32       `json:"vertices"`
	CutVertices []int32       `json:"cut_vertices"`
	Subgraph    *subgraphJSON `json:"subgraph,omitempty"`
}

// handleBlock serves GET /v1/block/{id}?graph=fp[&include=subgraph]: one
// block's vertex set, boundary cut vertices, and (on request) its remapped
// standalone subgraph — exactly one shard's payload, promoted from the
// spill tier if demoted.
func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	q, ctx, done, ok := s.resolveShard(w, r)
	if !ok {
		return
	}
	defer done()
	defer q.observeLatency(time.Now())
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil || id64 < 0 {
		writeError(w, http.StatusBadRequest, "bad block id %q", r.PathValue("id"))
		return
	}
	id := int32(id64)
	if int(id) >= q.numBlocks() {
		writeError(w, http.StatusNotFound, "no block %d (graph has %d)", id, q.numBlocks())
		return
	}
	wantSub := r.URL.Query().Get("include") == "subgraph"
	resp := blockResponse{Block: id, NumBlocks: q.numBlocks()}

	if q.set != nil {
		sh, okSh := q.st.mgr.Shard(q.key, id)
		if !okSh {
			// The set was invalidated under us (untrusted spilled state, a
			// concurrent delete). One rebuild attempt serves the query from
			// fresh state; a second failure degrades to the monolith.
			if !s.routeShard(w, ctx, q) {
				return
			}
			if q.set != nil {
				sh, okSh = q.st.mgr.Shard(q.key, id)
			}
			if q.set != nil && !okSh {
				q.st.fallbacks.Add(1)
				if !s.monolithicFallback(w, ctx, q) {
					return
				}
				q.set = nil
				q.degradedCause = "shard state invalidated during query"
			}
		}
		if q.set != nil {
			resp.shardMeta = q.meta()
			resp.NumVertices = len(sh.Vertices)
			resp.NumEdges = len(sh.EdgeMap)
			resp.Vertices = sh.Vertices
			resp.CutVertices = sh.Cuts
			if wantSub {
				sub := &subgraphJSON{N: sh.Sub.N, VertexMap: sh.VertexMap, EdgeMap: sh.EdgeMap}
				sub.Edges = make([][2]int32, len(sh.Sub.Edges))
				for i, e := range sh.Sub.Edges {
					sub.Edges[i] = [2]int32{e.U, e.V}
				}
				resp.Subgraph = sub
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}

	// Monolithic fallback: same answers derived from the block-cut tree and
	// ComponentSubgraph.
	t := q.blockTree()
	sub, vm, em := q.res.ComponentSubgraph(id)
	resp.shardMeta = q.meta()
	resp.NumVertices = len(t.VerticesOfBlock(id))
	resp.NumEdges = len(em)
	resp.Vertices = t.VerticesOfBlock(id)
	resp.CutVertices = t.CutsOfBlock(id)
	if wantSub {
		sj := &subgraphJSON{N: int32(sub.NumVertices()), VertexMap: vm, EdgeMap: em}
		sj.Edges = make([][2]int32, sub.NumEdges())
		for i, e := range sub.Edges() {
			sj.Edges[i] = [2]int32{e.U, e.V}
		}
		resp.Subgraph = sj
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseVertex reads the {v} path value and bounds-checks it against the
// graph, writing the error response itself on failure.
func parseVertex(w http.ResponseWriter, r *http.Request, g *bicc.Graph) (int32, bool) {
	v64, err := strconv.ParseInt(r.PathValue("v"), 10, 32)
	if err != nil || v64 < 0 {
		writeError(w, http.StatusBadRequest, "bad vertex %q", r.PathValue("v"))
		return 0, false
	}
	if v64 >= int64(g.NumVertices()) {
		writeError(w, http.StatusNotFound, "no vertex %d (graph has %d)", v64, g.NumVertices())
		return 0, false
	}
	return int32(v64), true
}

func (q *shardQuery) observeLatency(start time.Time) {
	q.st.latency.Observe(time.Since(start))
}

// --- stats -----------------------------------------------------------------

// ShardingSnapshot is the /statsz sharding section, present only when
// EnableSharding has been called so a non-sharded server's /statsz is
// byte-identical to older builds.
type ShardingSnapshot struct {
	Queries         int64 `json:"queries"`
	Fallbacks       int64 `json:"fallbacks"`
	Sets            int   `json:"sets"`
	ResidentShards  int   `json:"resident_shards"`
	Bytes           int64 `json:"bytes"`
	Builds          int64 `json:"builds"`
	BuildFailures   int64 `json:"build_failures"`
	Recovered       int64 `json:"recovered"`
	Demotions       int64 `json:"demotions"`
	Promotions      int64 `json:"promotions"`
	PromoteFailures int64 `json:"promote_failures"`
	Invalidations   int64 `json:"invalidations"`
	SpillEntries    int   `json:"spill_entries"`
	SpillBytes      int64 `json:"spill_bytes"`
}

func (st *shardState) snapshot() *ShardingSnapshot {
	snap := &ShardingSnapshot{
		Queries:         st.queries.Load(),
		Fallbacks:       st.fallbacks.Load(),
		Sets:            st.mgr.Sets(),
		ResidentShards:  st.mgr.ResidentShards(),
		Bytes:           st.mgr.Bytes(),
		Builds:          st.mgr.Builds(),
		BuildFailures:   st.mgr.BuildFailures(),
		Recovered:       st.mgr.Recovered(),
		Demotions:       st.mgr.Demotions(),
		Promotions:      st.mgr.Promotions(),
		PromoteFailures: st.mgr.PromoteFailures(),
		Invalidations:   st.mgr.Invalidations(),
	}
	if st.spill != nil {
		snap.SpillEntries = st.spill.Len()
		snap.SpillBytes = st.spill.Bytes()
	}
	return snap
}

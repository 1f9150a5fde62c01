package service

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"bicc"
	"bicc/internal/durable"
)

// resultKey identifies a cacheable computation: same graph content, same
// algorithm, same worker count. Procs is part of the key because the
// algorithm actually run (and its phase timings) depend on it — Auto
// resolves to Sequential at p=1. gen is the graph's mutation generation:
// a mutated graph keeps its stable id, so the generation is what separates
// results computed against different edge lists under one fingerprint.
type resultKey struct {
	fp    string
	gen   uint64
	algo  bicc.Algorithm
	procs int
}

// spillFP renders the graph-identity part of the durable key: the bare
// fingerprint at generation 0 (byte-compatible with records spilled by
// older builds) and fp@gen once mutated.
func (k resultKey) spillFP() string {
	if k.gen == 0 {
		return k.fp
	}
	return fmt.Sprintf("%s@%d", k.fp, k.gen)
}

// durableKey renders the key in the spill tier's naming scheme, matching
// durable.ResultRecord.Key.
func (k resultKey) durableKey() string {
	return fmt.Sprintf("%s-%s-%d", k.spillFP(), k.algo.String(), k.procs)
}

// cacheEntry is one computation, either in flight or completed. ready is
// closed exactly once when res/err become valid.
type cacheEntry struct {
	ready chan struct{}
	res   *queryResult
	err   error

	// waiters counts requests currently interested in the computation; when
	// it drops to zero before completion the computation's context is
	// canceled (nobody wants the answer anymore). Guarded by the cache mu.
	waiters int
	cancel  context.CancelFunc
	done    bool
	elem    *list.Element // LRU position once completed
	bytes   int64         // estimated resident size, charged while cached
}

// ResultCache is a single-flight LRU cache of BCC query results. Concurrent
// queries for the same (graph, algorithm, procs) coalesce onto one engine
// computation; completed results are kept for maxEntries keys and evicted
// least recently used.
//
// Errors and degraded results are never cached: a failed, canceled, or
// fallback-produced computation is forgotten so the next identical query
// retries the real engine from scratch — a transient engine fault must not
// poison the cache with sequential-quality answers for the cache's
// lifetime.
type ResultCache struct {
	mu         sync.Mutex
	entries    map[resultKey]*cacheEntry
	lru        *list.List // of resultKey, front = most recent
	maxEntries int

	// Disk tier. When spill is set, memory-pressure eviction demotes the
	// LRU entry's record to disk instead of dropping it, and a miss checks
	// the disk tier before starting a computation. memBudget bounds the
	// estimated resident bytes of completed entries; <= 0 leaves only the
	// entry-count bound.
	spill     *durable.Spill
	memBudget int64
	bytes     int64
}

// NewResultCache returns a cache holding up to maxEntries completed results;
// maxEntries <= 0 disables retention (single-flight coalescing still works).
func NewResultCache(maxEntries int) *ResultCache {
	return &ResultCache{
		entries:    map[resultKey]*cacheEntry{},
		lru:        list.New(),
		maxEntries: maxEntries,
	}
}

// Len returns the number of completed cached results.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the estimated resident size of completed cached results.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// SetDurable attaches (or, with nil, detaches) the disk tier and the
// memory byte budget. Entries already resident keep their place; the
// budget applies from the next insertion.
func (c *ResultCache) SetDurable(spill *durable.Spill, memBudget int64) {
	c.mu.Lock()
	c.spill = spill
	c.memBudget = memBudget
	c.mu.Unlock()
}

// resultBytes estimates the resident size of a cached result: the label
// slice dominates, the fixed overhead covers the struct, entry, and map
// bookkeeping, and every response fragment built so far counts at its
// length. Fragments built later are charged as they appear (see fragment).
// Caller holds c.mu.
func resultBytes(res *queryResult) int64 {
	n := int64(512)
	n += int64(len(res.edgeComp)) * 4
	n += int64(len(res.Phases)) * 96
	if res.Trace != nil {
		n += int64(len(res.Trace.Spans)) * 128
	}
	if res.memo != nil {
		n += res.memo.built
	}
	return n
}

// frag names one piece of a /v1/bcc response body, in body order: the
// head (counts and metadata), the four include views, the tail of flags,
// and the ?trace=1 trace. Each is a run of complete JSON fields that the
// handler splices between the per-request fields.
type frag uint8

const (
	fragHead frag = iota // `{"algorithm":…` — the object left open
	fragArticulation
	fragBridges
	fragComponents
	fragBlockCut
	fragTail  // `,"degraded":…,"incr":…`, or nothing
	fragTrace // `,"trace":{…}`, or nothing
	numFrags
)

// fragSet is a set of fragments: the ones a response carries.
type fragSet uint8

func (fs fragSet) with(f frag) fragSet { return fs | 1<<f }
func (fs fragSet) has(f frag) bool     { return fs&(1<<f) != 0 }

// resultMemo holds one result's response fragments, each built at most
// once — if C is not requested, it is not built; once built, it is kept. A
// cache hit then writes bytes the entry already has instead of deriving
// and encoding views per request.
type resultMemo struct {
	once [numFrags]sync.Once
	frag [numFrags][]byte
	err  [numFrags]error

	// built is the length of the fragments built so far, and entry the
	// cache entry charged for them while the result is resident (nil
	// otherwise). Both are guarded by ResultCache.mu once the result is
	// published; seed runs before that.
	built int64
	entry *cacheEntry
}

// seed builds fragment f of a result that has not been published yet.
func (m *resultMemo) seed(f frag, build func() ([]byte, error)) {
	m.once[f].Do(func() {
		m.frag[f], m.err[f] = build()
		m.built += int64(len(m.frag[f]))
	})
}

// fragment returns fragment f of res, building it with build on first use.
// Concurrent first requests wait for the one build. Its bytes are charged
// to the entry holding res, if it is resident, and the budgets enforced.
func (c *ResultCache) fragment(res *queryResult, f frag, build func() ([]byte, error)) ([]byte, error) {
	m := res.memo
	m.once[f].Do(func() {
		m.frag[f], m.err[f] = build()
		if n := int64(len(m.frag[f])); n > 0 {
			c.mu.Lock()
			m.built += n
			if e := m.entry; e != nil {
				e.bytes += n
				c.bytes += n
				c.enforceBudgetLocked(e)
			}
			c.mu.Unlock()
		}
	})
	return m.frag[f], m.err[f]
}

// Outcome classifies how a Do call was served, for stats.
type Outcome int

const (
	// OutcomeHit means the result was already cached.
	OutcomeHit Outcome = iota
	// OutcomeMiss means this call started the computation.
	OutcomeMiss
	// OutcomeCoalesced means this call joined an in-flight computation.
	OutcomeCoalesced
)

// Do returns the cached result for key, joining an in-flight computation or
// starting a new one via compute. compute receives a context that is
// canceled when every request waiting on the computation has gone away; it
// runs in its own goroutine so a caller abandoning the wait (ctx done) does
// not abort the computation for the others.
func (c *ResultCache) Do(ctx context.Context, key resultKey,
	compute func(ctx context.Context) (*queryResult, error)) (*queryResult, error, Outcome) {

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.done {
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
			res, err := e.res, e.err
			c.mu.Unlock()
			return res, err, OutcomeHit
		}
		e.waiters++
		c.mu.Unlock()
		return c.wait(ctx, key, e, OutcomeCoalesced)
	}
	if c.spill != nil {
		if res, ok := c.promoteLocked(key); ok {
			c.mu.Unlock()
			return res, nil, OutcomeHit
		}
	}

	base := context.Background()
	if ctx != nil {
		// Detach from the caller's cancellation but keep its values; the
		// computation's lifetime is governed by the waiter count, not by
		// whichever request happened to arrive first.
		base = context.WithoutCancel(ctx)
	}
	cctx, cancel := context.WithCancel(base)
	e := &cacheEntry{ready: make(chan struct{}), waiters: 1, cancel: cancel}
	c.entries[key] = e
	c.mu.Unlock()

	go func() {
		res, err := compute(cctx)
		c.mu.Lock()
		e.res, e.err = res, err
		e.done = true
		e.cancel = nil
		close(e.ready)
		cancel()
		if err != nil || res == nil || res.Degraded || c.maxEntries <= 0 || c.entries[key] != e {
			// Never cache failures or degraded (fallback) results, and don't
			// resurrect an entry every waiter abandoned (wait already
			// removed it from the map).
			if c.entries[key] == e {
				delete(c.entries, key)
			}
		} else {
			c.insertLocked(key, e)
		}
		c.mu.Unlock()
	}()

	return c.wait(ctx, key, e, OutcomeMiss)
}

// wait blocks until the entry completes or the caller's context is done,
// maintaining the entry's waiter count.
func (c *ResultCache) wait(ctx context.Context, key resultKey, e *cacheEntry, oc Outcome) (*queryResult, error, Outcome) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-e.ready:
		c.mu.Lock()
		e.waiters--
		res, err := e.res, e.err
		c.mu.Unlock()
		return res, err, oc
	case <-done:
		c.mu.Lock()
		e.waiters--
		if e.waiters == 0 && !e.done && e.cancel != nil {
			// Last interested request left: stop the engine.
			e.cancel()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
		}
		c.mu.Unlock()
		return nil, ctx.Err(), oc
	}
}

// promoteLocked serves a miss from the disk tier: read, decode, and (when
// retention is on) re-insert the record as a completed memory entry. A
// record that fails to decode is deleted — recompute beats serving it.
// Records spilled by older builds also carry encoded views; decoding skips
// them, and the views are rebuilt from the labels on request. Caller holds
// c.mu.
func (c *ResultCache) promoteLocked(key resultKey) (*queryResult, bool) {
	rec, ok := c.spill.Get(key.durableKey())
	if !ok {
		return nil, false
	}
	res := &queryResult{edgeComp: rec.EdgeComponent, memo: new(resultMemo)}
	if err := json.Unmarshal(rec.View, res); err != nil {
		c.spill.Remove(key.durableKey())
		return nil, false
	}
	if c.maxEntries > 0 {
		ready := make(chan struct{})
		close(ready)
		c.insertLocked(key, &cacheEntry{ready: ready, res: res, done: true})
	}
	return res, true
}

// insertLocked makes a completed entry resident: charged at its current
// size, its memo's later growth charged to it, and the budgets enforced.
// Caller holds c.mu.
func (c *ResultCache) insertLocked(key resultKey, e *cacheEntry) {
	e.elem = c.lru.PushFront(key)
	c.entries[key] = e
	e.bytes = resultBytes(e.res)
	c.bytes += e.bytes
	if e.res.memo != nil {
		e.res.memo.entry = e
	}
	c.enforceBudgetLocked(e)
}

// removeLocked takes a completed entry out of the memory tier and stops
// charging fragments its result builds from then on. Caller holds c.mu.
func (c *ResultCache) removeLocked(key resultKey, e *cacheEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, key)
	c.bytes -= e.bytes
	if e.res.memo != nil {
		e.res.memo.entry = nil
	}
}

// Respill rewrites key's spill record from a completed entry still resident
// in memory, reporting whether one was available. The scrubber's repair
// ladder starts here: promotion leaves the disk record in place, so a
// bit-rotted spill file often has a pristine in-memory twin — re-demoting
// it is free compared to recomputing.
func (c *ResultCache) Respill(key resultKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.done || e.res == nil || e.res.edgeComp == nil || e.res.Degraded || c.spill == nil {
		return false
	}
	view, err := json.Marshal(e.res)
	if err != nil {
		return false
	}
	return c.spill.Put(durable.ResultRecord{
		FP: key.spillFP(), Algorithm: key.algo.String(), Procs: key.procs,
		EdgeComponent: e.res.edgeComp, View: view,
	}) == nil
}

// DropGraph invalidates every result computed for a graph id, across all
// generations, algorithms, and proc counts — in memory and in the spill
// tier. Nothing is demoted to disk on the way out: the graph changed, so
// the results are wrong, not cold. In-flight computations are unhooked from
// the map (their waiters still get the answer they asked for against the
// snapshot they pinned, but the entry is never cached). Returns how many
// completed or in-flight entries were dropped.
func (c *ResultCache) DropGraph(fp string) int {
	c.mu.Lock()
	dropped := 0
	for key, e := range c.entries {
		if key.fp != fp {
			continue
		}
		if e.elem != nil {
			c.removeLocked(key, e)
		} else {
			delete(c.entries, key)
		}
		dropped++
	}
	sp := c.spill
	c.mu.Unlock()
	if sp != nil {
		// Spilled keys are "<fp>-algo-procs" (gen 0) or "<fp>@gen-algo-procs";
		// fingerprints are fixed-width hex, so the prefix cannot collide with
		// another graph's keys.
		sp.RemovePrefix(fp)
	}
	return dropped
}

// enforceBudgetLocked demotes (or, with no disk tier, drops) completed
// entries LRU-first until both the entry-count and byte budgets hold.
// keep, the entry being inserted, is exempt: an oversized result must
// survive its own insertion. Caller holds c.mu.
func (c *ResultCache) enforceBudgetLocked(keep *cacheEntry) {
	for c.lru.Len() > c.maxEntries || (c.memBudget > 0 && c.bytes > c.memBudget) {
		back := c.lru.Back()
		if back == nil {
			return
		}
		key := back.Value.(resultKey)
		e := c.entries[key]
		if e == keep {
			return
		}
		c.demoteLocked(key, e)
	}
}

// demoteLocked removes a completed entry from the memory tier, writing it
// to the disk tier first when one is attached. Results recovered without
// their labels (or degraded ones, which are never cached) cannot be
// re-verified after a crash, so only label-bearing entries are spilled.
func (c *ResultCache) demoteLocked(key resultKey, e *cacheEntry) {
	if c.spill != nil && e.res != nil && e.res.edgeComp != nil {
		if view, err := json.Marshal(e.res); err == nil {
			_ = c.spill.Put(durable.ResultRecord{
				FP:            key.spillFP(),
				Algorithm:     key.algo.String(),
				Procs:         key.procs,
				EdgeComponent: e.res.edgeComp,
				View:          view,
			})
		}
	}
	c.removeLocked(key, e)
}

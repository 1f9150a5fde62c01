package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"bicc"
)

// target is where a request goes: the bccd process over loopback, or — in
// the traced run — the same handler served in-process.
type target interface {
	do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) (int, time.Duration, error)
}

type httpTarget struct {
	client *http.Client
	base   string
}

func (t httpTarget) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	return call(ctx, t.client, method, t.base+path, body, buf)
}

// inprocTarget serves requests through a service.Server's Handler with a
// recorder, so the time excludes sockets and the HTTP client. With mem set
// it also reads the Go runtime's allocation and GC counters around the
// handler, outside the timed interval.
type inprocTarget struct {
	h       http.Handler
	mem     bool
	allocMB float64 // allocated by the last request served
	gcs     uint32  // GC cycles completed during it
}

func (t *inprocTarget) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	buf.Reset()
	rec.Body = buf
	var before, after runtime.MemStats
	if t.mem {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	t.h.ServeHTTP(rec, req)
	lat := time.Since(start)
	if t.mem {
		runtime.ReadMemStats(&after)
		t.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.gcs = after.NumGC - before.NumGC
	}
	return rec.Code, lat, nil
}

// client is one closed-loop client: a target plus its own response buffer.
// Each operation returns an error when the response is not the one the
// oracle predicts; the checks run after the clock has stopped, and last
// holds the timed interval of the request it sent.
type client struct {
	t    target
	buf  bytes.Buffer
	last sent
}

// sent is the timed interval of one request: from just before it was
// written to its last response byte. It is zero when no response came.
type sent struct {
	begin, end time.Time
}

func (s sent) latency() time.Duration { return s.end.Sub(s.begin) }

func (c *client) send(ctx context.Context, method, path string, body []byte, want int) error {
	c.last = sent{}
	code, lat, err := c.t.do(ctx, method, path, body, &c.buf)
	if err != nil {
		return err
	}
	end := time.Now()
	c.last = sent{end.Add(-lat), end}
	if code != want {
		msg := c.buf.Bytes()
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, code, want, bytes.TrimSpace(msg))
	}
	return nil
}

func (c *client) decode(into any) error {
	if err := json.Unmarshal(c.buf.Bytes(), into); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

func (c *client) upload(ctx context.Context, in *input) error {
	if err := c.send(ctx, http.MethodPost, "/v1/graphs", in.text, http.StatusOK); err != nil {
		return err
	}
	var info struct {
		Fingerprint string `json:"fingerprint"`
		Vertices    int    `json:"vertices"`
		Edges       int    `json:"edges"`
	}
	if err := c.decode(&info); err != nil {
		return err
	}
	if info.Fingerprint != in.fp || info.Vertices != in.g.NumVertices() || info.Edges != in.g.NumEdges() {
		return fmt.Errorf("upload answered graph %s (n=%d, m=%d), want %s (n=%d, m=%d)",
			info.Fingerprint, info.Vertices, info.Edges, in.fp, in.g.NumVertices(), in.g.NumEdges())
	}
	return nil
}

func (c *client) remove(ctx context.Context, fp string) error {
	return c.send(ctx, http.MethodDelete, "/v1/graphs/"+fp, nil, http.StatusNoContent)
}

// Query bodies. Every query is algorithm "auto", so it goes through the
// daemon's frozen planner.
func queryBody(fp string, include ...string) []byte {
	b, _ := json.Marshal(struct {
		Graph     string   `json:"graph"`
		Algorithm string   `json:"algorithm"`
		Include   []string `json:"include,omitempty"`
	}{fp, "auto", include})
	return b
}

var (
	coldInclude = []string{"articulation"}
	hitInclude  = []string{"articulation", "bridges"}
	dumpInclude = []string{"components"}
)

// query sends one /v1/bcc request and checks it against the oracle. wantCached
// pins whether the answer must come from the result cache.
func (c *client) query(ctx context.Context, fp string, include []string, o *oracle, v views, wantCached bool) (*bccBody, error) {
	if err := c.send(ctx, http.MethodPost, "/v1/bcc", queryBody(fp, include...), http.StatusOK); err != nil {
		return nil, err
	}
	var b bccBody
	if err := c.decode(&b); err != nil {
		return nil, err
	}
	if b.Cached != wantCached {
		return nil, fmt.Errorf("cached = %v, want %v", b.Cached, wantCached)
	}
	return &b, o.check(&b, v)
}

// cachedQuery is a hit or dump: the first answer is decoded and checked in
// full and kept as the reference; every later answer must be byte-identical
// to it or, failing that, pass the full check itself.
func (c *client) cachedQuery(ctx context.Context, fp string, include []string, o *oracle, v views, ref *[]byte) error {
	if *ref != nil {
		err := c.send(ctx, http.MethodPost, "/v1/bcc", queryBody(fp, include...), http.StatusOK)
		if err != nil || bytes.Equal(c.buf.Bytes(), *ref) {
			return err
		}
		var b bccBody
		if err := c.decode(&b); err != nil {
			return err
		}
		if !b.Cached {
			return fmt.Errorf("cached = false on a hot graph")
		}
		return o.check(&b, v)
	}
	_, err := c.query(ctx, fp, include, o, v, true)
	if err == nil {
		*ref = bytes.Clone(c.buf.Bytes())
	}
	return err
}

// commit sends one mutation batch and checks it was absorbed into the
// generation and edge count the client expects.
func (c *client) commit(ctx context.Context, fp string, batch []bicc.Edge, wantGen uint64, wantEdges int) error {
	if err := c.send(ctx, http.MethodPost, "/v1/graphs/"+fp+"/edges", mutateBody(batch), http.StatusOK); err != nil {
		return err
	}
	var r struct {
		Generation uint64 `json:"generation"`
		Mode       string `json:"mode"`
		Edges      int    `json:"edges"`
		Degraded   bool   `json:"degraded"`
	}
	if err := c.decode(&r); err != nil {
		return err
	}
	if r.Mode != "absorb" || r.Degraded || r.Generation != wantGen || r.Edges != wantEdges {
		return fmt.Errorf("mutation answered mode %s (degraded %v), generation %d, %d edges; want absorb, %d, %d",
			r.Mode, r.Degraded, r.Generation, r.Edges, wantGen, wantEdges)
	}
	return nil
}

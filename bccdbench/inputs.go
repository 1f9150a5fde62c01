package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"bicc"
	"bicc/internal/service"
)

// Every graph is a seeded random connected G(n, m) with m = 4n: the row the
// checked-in BENCH files use, so engine numbers here line up with theirs.
const (
	graphN = 100_000
	graphM = 4 * graphN
)

// input is one generated graph as the client holds it: the graph, its
// upload body, its content fingerprint, and the sequential oracle's answer.
type input struct {
	g      *bicc.Graph
	text   []byte
	fp     string
	oracle *oracle
}

// oracle is the sequential library's decomposition of one graph, computed
// before anything is timed. Responses are checked against it.
type oracle struct {
	res        *bicc.Result
	blocks     int
	cuts       []int32
	bridges    []int32
	components [][]int32 // only when a workload dumps components
}

// graphSeed derives the generator seed of graph idx of a run from the run's
// seed, so one --seed fixes every input of the run.
func graphSeed(seed int64, idx int) int64 { return seed*1009 + int64(idx) }

func makeInput(seed int64, idx int, withComponents bool) (*input, error) {
	g, err := bicc.RandomConnectedGraph(graphN, graphM, graphSeed(seed, idx))
	if err != nil {
		return nil, fmt.Errorf("generating graph %d: %w", idx, err)
	}
	var buf bytes.Buffer
	if err := bicc.WriteGraph(&buf, g); err != nil {
		return nil, fmt.Errorf("serializing graph %d: %w", idx, err)
	}
	or, err := newOracle(g, withComponents)
	if err != nil {
		return nil, fmt.Errorf("oracle for graph %d: %w", idx, err)
	}
	return &input{g: g, text: buf.Bytes(), fp: service.Fingerprint(g), oracle: or}, nil
}

func newOracle(g *bicc.Graph, withComponents bool) (*oracle, error) {
	res, err := bicc.BiconnectedComponents(g, &bicc.Options{Algorithm: bicc.Sequential})
	if err != nil {
		return nil, err
	}
	o := &oracle{res: res, blocks: res.NumComponents, cuts: res.ArticulationPoints(), bridges: res.Bridges()}
	if withComponents {
		o.components = res.Components()
	}
	return o, nil
}

// bccBody is the part of a /v1/bcc response the checks read.
type bccBody struct {
	Algorithm       string    `json:"algorithm"`
	NumComponents   int       `json:"num_components"`
	NumArticulation int       `json:"num_articulation_points"`
	NumBridges      int       `json:"num_bridges"`
	Articulation    []int32   `json:"articulation_points"`
	Bridges         []int32   `json:"bridges"`
	Components      [][]int32 `json:"components"`
	Degraded        bool      `json:"degraded"`
	Cached          bool      `json:"cached"`
	Incr            bool      `json:"incr"`
}

// views names the include lists a check compares; counts are always compared.
type views struct{ articulation, bridges, components bool }

// check compares a decoded /v1/bcc response with the oracle.
func (o *oracle) check(b *bccBody, v views) error {
	if b.Degraded {
		return fmt.Errorf("degraded result from %s", b.Algorithm)
	}
	if b.NumComponents != o.blocks || b.NumArticulation != len(o.cuts) || b.NumBridges != len(o.bridges) {
		return fmt.Errorf("counts (blocks, cuts, bridges) = (%d, %d, %d), oracle (%d, %d, %d)",
			b.NumComponents, b.NumArticulation, b.NumBridges, o.blocks, len(o.cuts), len(o.bridges))
	}
	if v.articulation && !slices.Equal(b.Articulation, o.cuts) {
		return fmt.Errorf("articulation points differ from the oracle")
	}
	if v.bridges && !slices.Equal(b.Bridges, o.bridges) {
		return fmt.Errorf("bridges differ from the oracle")
	}
	if v.components {
		if len(b.Components) != len(o.components) {
			return fmt.Errorf("%d components, oracle %d", len(b.Components), len(o.components))
		}
		for i := range b.Components {
			if !slices.Equal(b.Components[i], o.components[i]) {
				return fmt.Errorf("component %d differs from the oracle", i)
			}
		}
	}
	return nil
}

// absorbPicker chooses mutation endpoints that every batch absorbs: pairs of
// distinct, non-adjacent vertices of the graph's largest block. Two vertices
// of one block are already biconnected, so the new edge joins that block and
// no articulation point, bridge or block count moves.
type absorbPicker struct {
	rng      *rand.Rand
	vertices []int32
	edges    map[uint64]struct{}
}

func newAbsorbPicker(in *input, seed int64) *absorbPicker {
	res := in.oracle.res
	size := make([]int, res.NumComponents)
	for _, c := range res.EdgeComponent {
		size[c]++
	}
	big := int32(0)
	for c, s := range size {
		if s > size[big] {
			big = int32(c)
		}
	}
	edges := in.g.Edges()
	seen := make([]bool, in.g.NumVertices())
	p := &absorbPicker{rng: rand.New(rand.NewSource(seed)), edges: make(map[uint64]struct{}, len(edges))}
	for i, e := range edges {
		p.edges[edgeKey(e.U, e.V)] = struct{}{}
		if res.EdgeComponent[i] != big {
			continue
		}
		for _, v := range [2]int32{e.U, e.V} {
			if !seen[v] {
				seen[v] = true
				p.vertices = append(p.vertices, v)
			}
		}
	}
	slices.Sort(p.vertices)
	return p
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// batch returns k new edges, each recorded so no later batch repeats it.
func (p *absorbPicker) batch(k int) []bicc.Edge {
	out := make([]bicc.Edge, 0, k)
	for len(out) < k {
		u := p.vertices[p.rng.Intn(len(p.vertices))]
		v := p.vertices[p.rng.Intn(len(p.vertices))]
		key := edgeKey(u, v)
		if _, dup := p.edges[key]; u == v || dup {
			continue
		}
		p.edges[key] = struct{}{}
		out = append(out, bicc.Edge{U: u, V: v})
	}
	return out
}

// mutateBody renders a batch of inserts as a POST /v1/graphs/{fp}/edges body.
func mutateBody(batch []bicc.Edge) []byte {
	var b bytes.Buffer
	b.WriteString(`{"deltas":[`)
	for i, e := range batch {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"op":"insert","u":%d,"v":%d}`, e.U, e.V)
	}
	b.WriteString("]}")
	return b.Bytes()
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"qcongest/internal/dist"
	"qcongest/internal/graph"
	"qcongest/internal/server"
	"qcongest/internal/svc"
)

const (
	ctBinary = "application/x-qcongest-graph"
	ctJSON   = "application/json"
)

// readGraph is one graph of the read mix with its client-side copy and
// the answers direct library calls give on that copy.
type readGraph struct {
	class  string // "small" or "large"
	digest string
	g      *graph.Graph
	ecc    []int64 // exact eccentricities (small only)
	diam   int64
	rad    int64
	sk     []sketchCase
}

type sketchCase struct {
	sources []int
	l, k    int
	eps     dist.Eps
	body    []byte // the request body
	den     int64
	nums    []int64 // ẽ(v) per source, in request order
}

// readMix is the shared read workload of serve_warm and routed: 80%
// small-graph diameter/radius/eccentricity/sketch hits in equal shares,
// 20% large-graph sketch hits, all warm after set-up.
type readMix struct {
	small, large *readGraph
	// cache is a client-side sketch cache holding the same tuples on the
	// client-side copies; traced runs time its warm hits.
	cache *server.SketchCache
	// sabotage names an expectation to corrupt once measuring starts
	// (see config.sabotage); set-up's own checks still see true values.
	sabotage string
}

// readOp is one read request.
type readOp struct {
	g      *readGraph
	kind   string // "diameter", "radius", "eccentricity" or "sketch"
	v      int
	sk     *sketchCase
	method string
	path   string
	body   []byte
}

// newReadMix builds both graphs' client-side copies from the seed. The
// small graph is generated here and uploaded as binary (its decoded
// copy memoizes the digest, as the daemon's does); the large one is
// named by a GenSpec and regenerated client-side (neither copy memoizes
// it).
func newReadMix(cfg config) (m *readMix, smallBody []byte, largeSpec svc.GenSpec, err error) {
	rng := rand.New(rand.NewSource(cfg.seed*7 + 3))
	gs := graph.RandomWeights(graph.LowDiameterExpanderish(cfg.size.smallN, 4, rng), 16, rng)
	smallBody = graph.FormatBinary(gs)
	smallCopy, err := graph.ParseBinary(smallBody)
	if err != nil {
		return nil, nil, svc.GenSpec{}, fmt.Errorf("decoding small graph: %w", err)
	}
	largeSpec = svc.GenSpec{Kind: "lowdiameter", N: cfg.size.largeN, AvgDeg: 4, MaxW: 16, Seed: cfg.seed*7 + 5}
	largeCopy, err := svc.GenerateGraph(&largeSpec)
	if err != nil {
		return nil, nil, svc.GenSpec{}, fmt.Errorf("generating large graph: %w", err)
	}
	m = &readMix{cache: server.NewSketchCache(16, 0), sabotage: cfg.sabotage}
	m.small = &readGraph{class: "small", g: smallCopy, digest: graph.DigestString(smallCopy.Digest())}
	m.large = &readGraph{class: "large", g: largeCopy, digest: graph.DigestString(largeCopy.Digest())}
	m.small.ecc = smallCopy.Eccentricities()
	m.small.diam, m.small.rad = m.small.ecc[0], m.small.ecc[0]
	for _, e := range m.small.ecc {
		m.small.diam = max(m.small.diam, e)
		m.small.rad = min(m.small.rad, e)
	}
	// Two tuples on the large graph: each of its builds costs about a
	// quarter second of set-up, client side and daemon side.
	m.small.sk = m.sketches(smallCopy, 4, 8, 16, 3, rng)
	m.large.sk = m.sketches(largeCopy, 2, 4, 8, 2, rng)
	return m, smallBody, largeSpec, nil
}

// corrupt applies the configured sabotage, once.
func (m *readMix) corrupt() {
	switch m.sabotage {
	case "read-parity":
		m.small.diam++
	case "sketch-parity":
		m.large.sk[0].nums[0]++
	}
	m.sabotage = ""
}

// sketches draws the warm sketch tuples of one graph and computes their
// answers through the client-side cache.
func (m *readMix) sketches(g *graph.Graph, tuples, size, l, k int, rng *rand.Rand) []sketchCase {
	out := make([]sketchCase, tuples)
	for i := range out {
		src := rng.Perm(g.N())[:size]
		eps := dist.EpsForN(g.N())
		body, _ := json.Marshal(svc.SketchRequest{Sources: src, L: l, K: k}) // plain ints cannot fail
		sk := m.cache.Skeleton(g, src, l, k, eps)
		c := sketchCase{sources: src, l: l, k: k, eps: eps, body: body, den: sk.DenOut}
		for _, v := range src {
			c.nums = append(c.nums, sk.ApproxEccentricity(v))
		}
		out[i] = c
	}
	return out
}

// pick draws the next read of the mix.
func (m *readMix) pick(rng *rand.Rand) readOp {
	r := rng.Intn(10)
	if r >= 8 {
		return m.large.sketchOp(rng.Intn(len(m.large.sk)))
	}
	g := m.small
	switch r / 2 {
	case 0:
		return g.metricOp("diameter", 0)
	case 1:
		return g.metricOp("radius", 0)
	case 2:
		return g.metricOp("eccentricity", rng.Intn(g.g.N()))
	}
	return g.sketchOp(rng.Intn(len(g.sk)))
}

// metricOp reads an exact metric; v is used by eccentricity only.
func (g *readGraph) metricOp(kind string, v int) readOp {
	path := "/v1/graphs/" + g.digest + "/" + kind
	if kind == "eccentricity" {
		path += "?v=" + strconv.Itoa(v)
	}
	return readOp{g: g, kind: kind, v: v, method: http.MethodGet, path: path}
}

// sketchOp reads the i-th warm sketch tuple.
func (g *readGraph) sketchOp(i int) readOp {
	sk := &g.sk[i]
	return readOp{g: g, kind: "sketch", sk: sk, method: http.MethodPost, path: "/v1/graphs/" + g.digest + "/sketch", body: sk.body}
}

func (op readOp) contentType() string {
	if op.body != nil {
		return ctJSON
	}
	return ""
}

// do sends the read to base and checks the answer.
func (op readOp) do(c *http.Client, base string) error {
	code, body, err := call(c, op.method, base+op.path, op.contentType(), op.body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", op.method, op.path, err)
	}
	return op.check(code, body)
}

// check is the read parity gate: every answer equals the direct library
// call on the client-side graph.
func (op readOp) check(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", op.method, op.path, code, body)
	}
	if op.kind == "sketch" {
		var r svc.SketchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("%s: decoding sketch answer: %w", op.path, err)
		}
		if r.Digest != op.g.digest || r.Den != op.sk.den || len(r.Eccentricities) != len(op.sk.nums) {
			return fmt.Errorf("%s: sketch answer %s den %d with %d values, want %s den %d with %d",
				op.path, r.Digest, r.Den, len(r.Eccentricities), op.g.digest, op.sk.den, len(op.sk.nums))
		}
		for i, e := range r.Eccentricities {
			if e.V != op.sk.sources[i] || e.Num != op.sk.nums[i] {
				return fmt.Errorf("%s: ẽ(%d) = %d/%d, library gives ẽ(%d) = %d/%d",
					op.path, e.V, e.Num, r.Den, op.sk.sources[i], op.sk.nums[i], op.sk.den)
			}
		}
		return nil
	}
	var r svc.MetricResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: decoding answer: %w", op.path, err)
	}
	want := op.g.diam
	switch op.kind {
	case "radius":
		want = op.g.rad
	case "eccentricity":
		want = op.g.ecc[op.v]
	}
	if r.Digest != op.g.digest || r.Value != want {
		return fmt.Errorf("%s: answered %d for %s, library gives %d", op.path, r.Value, r.Digest, want)
	}
	return nil
}

// warm sends every distinct read once, so the exact-metric memo and the
// daemon's sketch cache are filled before timing.
func (m *readMix) warm(c *http.Client, base string) error {
	ops := []readOp{m.small.metricOp("diameter", 0), m.small.metricOp("radius", 0)}
	for _, g := range []*readGraph{m.small, m.large} {
		for i := range g.sk {
			ops = append(ops, g.sketchOp(i))
		}
	}
	for _, op := range ops {
		if err := op.do(c, base); err != nil {
			return fmt.Errorf("warming: %w", err)
		}
	}
	return nil
}

// replayLocal times the layer calls below one read: the daemon's handler
// stack on a recorder (no socket), the sketch cache's warm hit and the
// graph digest, both on the client-side copy. It returns the handler
// time.
func (m *readMix) replayLocal(tr *tracer, op, root int, h http.Handler, r readOp) (time.Duration, error) {
	req := httptest.NewRequest(r.method, r.path, bytesReader(r.body))
	if ct := r.contentType(); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	rec := httptest.NewRecorder()
	handler := tr.timed(op, root, "svc.ServeHTTP", r.g.class, func() { h.ServeHTTP(rec, req) })
	if err := r.check(rec.Code, rec.Body.Bytes()); err != nil {
		return 0, fmt.Errorf("handler replay: %w", err)
	}
	if r.kind == "sketch" {
		tr.timed(op, root, "server.SketchCache.Skeleton", r.g.class, func() {
			m.cache.Skeleton(r.g.g, r.sk.sources, r.sk.l, r.sk.k, r.sk.eps)
		})
	}
	tr.timed(op, root, "graph.Digest", r.g.class, func() { r.g.g.Digest() })
	return handler, nil
}

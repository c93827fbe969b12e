package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"qcongest/internal/core"
	"qcongest/internal/dist"
	"qcongest/internal/graph"
	"qcongest/internal/qdist"
	"qcongest/internal/qsim"
)

// The approx workload cycles through approxGraphs graphs and
// approxSeeds call seeds in both modes, so every (graph, seed, mode)
// repeats each 2·approxGraphs·approxSeeds calls and each repeat must
// reproduce the first answer. Several graphs per run keep one graph's
// build costs from setting the whole run's numbers.
const (
	approxGraphs = 8
	approxSeeds  = 1
)

// approxBench runs core.Approximate with default options (Sets = n, as
// in the paper) on weighted DiameterControlled graphs, alternating
// diameter and radius.
type approxBench struct {
	cfg        config
	graphs     []*approxGraph
	first      map[approxKey]*core.Result
	calls      int
	warmRounds int64 // Rounds of the set-up call: fixed by the seed

	// Per traced call: builds per call, evaluation ratio, ecc query
	// time per query, and the root span for self time.
	builds, evalRatio []float64
	eccPerQuery       []time.Duration
	selfTime          []time.Duration
}

type approxGraph struct {
	g              *graph.Graph
	ecc            []int64 // exact weighted eccentricities, computed in set-up
	exactD, exactR int64
}

type approxKey struct {
	graph int
	seed  int64
	mode  core.Mode
}

// approxCall is one call's inputs.
type approxCall struct {
	approxKey
	g *approxGraph
}

// prepareApprox returns a set-up that generates the graph, computes its
// exact eccentricities and makes one call, so lazy set-up (pools,
// arenas) is paid before timing.
func prepareApprox(cfg config) (setupFunc, error) {
	return func(int) (bench, error) { return setupApprox(cfg) }, nil
}

func setupApprox(cfg config) (bench, error) {
	b := &approxBench{cfg: cfg, first: map[approxKey]*core.Result{}}
	for j := 0; j < approxGraphs; j++ {
		rng := rand.New(rand.NewSource(cfg.seed*approxGraphs + int64(j)))
		ag := &approxGraph{g: graph.RandomWeights(graph.DiameterControlled(cfg.size.approxN, 6, rng), 16, rng)}
		ag.ecc = ag.g.Eccentricities()
		ag.exactD, ag.exactR = ag.ecc[0], ag.ecc[0]
		for _, e := range ag.ecc {
			ag.exactD = max(ag.exactD, e)
			ag.exactR = min(ag.exactR, e)
		}
		b.graphs = append(b.graphs, ag)
	}
	c := b.next()
	res, err := c.run()
	if err := b.check(c, res, err); err != nil {
		return nil, fmt.Errorf("warm-up call: %w", err)
	}
	b.warmRounds = res.Rounds
	// The first measured call repeats the set-up call, so every run
	// exercises the repeat gate however few calls it makes.
	b.calls = 0
	switch cfg.sabotage {
	case "approx-ratio":
		for _, ag := range b.graphs {
			ag.exactD *= 2
			ag.exactR *= 2
		}
	case "approx-repeat":
		bad := *res
		bad.Rounds++
		b.first[c.approxKey] = &bad
	}
	return b, nil
}

// next returns the inputs of the next call.
func (b *approxBench) next() approxCall {
	i := b.calls
	b.calls++
	mode := core.DiameterMode
	if i%2 == 1 {
		mode = core.RadiusMode
	}
	j := (i / 2) % approxGraphs
	seed := b.cfg.seed*1000 + int64((i/(2*approxGraphs))%approxSeeds)
	return approxCall{approxKey{j, seed, mode}, b.graphs[j]}
}

func (c approxCall) run() (*core.Result, error) {
	return core.Approximate(c.g.g, c.mode, core.Options{Seed: c.seed})
}

// check is the approx correctness gate: estimate ÷ exact value lies in
// [1, (1+ε)²], and a repeated (seed, mode) reproduces Num, Den and
// Rounds exactly.
func (b *approxBench) check(c approxCall, res *core.Result, err error) error {
	if err != nil {
		return err
	}
	exact := c.g.exactD
	if c.mode == core.RadiusMode {
		exact = c.g.exactR
	}
	eps := res.Params.Eps.Float()
	ratio := res.Estimate / float64(exact)
	if ratio < 1-1e-9 || ratio > (1+eps)*(1+eps)+1e-9 {
		return fmt.Errorf("graph %d %s seed %d: estimate %d/%d ÷ exact %d = %.5f outside [1, (1+ε)²=%.5f]",
			c.graph, c.mode, c.seed, res.Num, res.Den, exact, ratio, (1+eps)*(1+eps))
	}
	if f, ok := b.first[c.approxKey]; ok {
		if f.Num != res.Num || f.Den != res.Den || f.Rounds != res.Rounds {
			return fmt.Errorf("graph %d %s seed %d: repeat gave %d/%d in %d rounds, first call %d/%d in %d rounds",
				c.graph, c.mode, c.seed, res.Num, res.Den, res.Rounds, f.Num, f.Den, f.Rounds)
		}
	} else {
		b.first[c.approxKey] = res
	}
	return nil
}

func (b *approxBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	var replayErr error
	p := runClients(d, func(deadline time.Time, p *phase) {
		for time.Now().Before(deadline) && replayErr == nil {
			c := b.next()
			start := time.Now()
			res, err := c.run()
			lat := time.Since(start)
			p.attempted++
			p.lat = append(p.lat, lat)
			if err := b.check(c, res, err); err != nil {
				p.fail(err)
				continue
			}
			if tr != nil {
				op := tr.op()
				root := tr.record(op, 0, "core.Approximate", c.mode.String(), start, lat)
				replayErr = b.replay(tr, op, root, c, res, lat)
			}
		}
	})
	return p, replayErr
}

// replay times, for one finished call, the layer calls it is made of:
// the parameter BFS, one skeleton build and its eccentricity queries at
// the call's Params, and the quantum-search simulator over a
// precomputed table of the call's outer values.
func (b *approxBench) replay(tr *tracer, op, root int, c approxCall, res *core.Result, lat time.Duration) error {
	g, ecc, mode := c.g.g, c.g.ecc, c.mode
	n := g.N()
	params := res.Params
	rng := rand.New(rand.NewSource(c.seed*2_654_435_761 + 1))
	sets := sampleSets(n, n, params.R, rng)
	if !contains(sets[res.Index], res.Witness) {
		return fmt.Errorf("replay: witness %d not in set %d; the sampling copy no longer matches core", res.Witness, res.Index)
	}
	// Build cost grows with |S_i|, and the chosen set is biased towards
	// large sets, so the replayed build uses a set of median size.
	s := medianSet(sets)
	diam := tr.timed(op, root, "graph.UnweightedDiameter", "", func() { g.UnweightedDiameter() })
	var sk *dist.Skeleton
	build := tr.timed(op, root, "dist.BuildSkeletonWith", "", func() {
		sk = dist.BuildSkeletonWith(g, s, params.L, params.K, params.Eps, dist.BuildSkeletonOpts{})
	})
	queries := tr.timed(op, root, "dist.ApproxEccentricity", "", func() {
		for _, v := range s {
			sk.ApproxEccentricity(v)
		}
	})
	sk.Release()

	// f(i) with exact eccentricities in place of the skeleton's, in the
	// fixed-point unit core compares outer values in.
	table := make([]int64, len(sets))
	for i, s := range sets {
		v := ecc[s[0]]
		for _, u := range s[1:] {
			if (mode == core.DiameterMode && ecc[u] > v) || (mode == core.RadiusMode && ecc[u] < v) {
				v = ecc[u]
			}
		}
		table[i] = v << 20
	}
	proc := qdist.Procedure{Name: "replay-outer", SetupRounds: params.D, EvalRounds: 1,
		Domain: uint64(len(table)), Value: func(x uint64) int64 { return table[x] }}
	rho := 0.5 * float64(params.R) / float64(n)
	delta := 1 / float64(n*n)
	var searchErr error
	search := tr.timed(op, root, "qdist.search", "", func() {
		if mode == core.DiameterMode {
			_, searchErr = qdist.TopMass(proc, rho, delta, qsim.Exact, rng)
		} else {
			_, searchErr = qdist.BottomMass(proc, rho, delta, qsim.Exact, rng)
		}
	})
	if searchErr != nil {
		return fmt.Errorf("replay search: %w", searchErr)
	}

	perQuery := queries / time.Duration(len(s))
	builds := res.SetsEvaluated + 1
	// Each evaluated set answers at most |S_i| eccentricity queries; the
	// mean set size stands in for the sets actually evaluated.
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	nQueries := builds * total / len(sets)
	self := lat - diam - time.Duration(builds)*build - time.Duration(nQueries)*perQuery - search
	b.builds = append(b.builds, float64(builds))
	b.evalRatio = append(b.evalRatio, float64(res.OuterEvaluations)/float64(res.SetsEvaluated))
	b.eccPerQuery = append(b.eccPerQuery, perQuery)
	b.selfTime = append(b.selfTime, self)
	return nil
}

func (b *approxBench) layers(tr *tracer, _ *phase, m metrics) {
	m.set("graph.unweighted_diameter_ms", ms(quantile(tr.durations("graph.UnweightedDiameter", ""), 0.5)))
	m.set("dist.build_ms", ms(quantile(tr.durations("dist.BuildSkeletonWith", ""), 0.5)))
	m.set("dist.builds_per_call", median(b.builds))
	m.set("dist.ecc_query_us", us(quantile(b.eccPerQuery, 0.5)))
	m.set("qsim.search_ms", ms(quantile(tr.durations("qdist.search", ""), 0.5)))
	m.set("core.self_ms", ms(quantile(b.selfTime, 0.5)))
	m.set("core.eval_ratio", median(b.evalRatio))
	m.set("core.rounds", float64(b.warmRounds))
}

func (b *approxBench) close() error { return nil }

// sampleSets mirrors core's set sampling (each node joins each of the
// `sets` sets with probability r/n; an empty draw becomes one random
// node), so a replay can rebuild the sets a call drew from its seed.
func sampleSets(n, sets, r int, rng *rand.Rand) [][]int {
	out := make([][]int, sets)
	p := float64(r) / float64(n)
	for i := range out {
		var s []int
		for v := 0; v < n; v++ {
			if rng.Float64() < p {
				s = append(s, v)
			}
		}
		if len(s) == 0 {
			s = []int{rng.Intn(n)}
		}
		out[i] = s
	}
	return out
}

// medianSet returns a set of median size.
func medianSet(sets [][]int) []int {
	bySize := make([][]int, len(sets))
	copy(bySize, sets)
	sort.SliceStable(bySize, func(i, j int) bool { return len(bySize[i]) < len(bySize[j]) })
	return bySize[len(bySize)/2]
}

func contains(s []int, v int) bool {
	for _, u := range s {
		if u == v {
			return true
		}
	}
	return false
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sizes are the input sizes of every workload. fullSize is what the
// benchmark measures; the smoke test runs the same code at toySize.
type sizes struct {
	approxN           int           // DiameterControlled node count of the approx graph
	smallN            int           // serve_warm / routed small graph
	largeN            int           // serve_warm / routed large graph (GenSpec, not memoized)
	ingestN           int           // nodes per uploaded graph
	ingestM           int           // edges per uploaded graph
	ingestCycle       int           // uploads per ingest cycle (one data dir each)
	routedUploadEvery time.Duration // send interval of the routed upload client
}

var fullSize = sizes{
	approxN:     256,
	smallN:      1024,
	largeN:      131072,
	ingestN:     2048,
	ingestM:     16384,
	ingestCycle: 256,
	// 12.5 uploads/s keeps a steady writer beside the reads (a few
	// snapshot folds per run) while bounding the graphs a run leaves
	// resident: every upload stays in the registry.
	routedUploadEvery: 80 * time.Millisecond,
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     sizes
	dir      string // run directory, removed when the run ends
	spanDir  string // where traced runs write their spans
	// sabotage, when set, corrupts one expectation of the named gate
	// after set-up; the smoke test uses it to prove each gate fails the
	// run.
	sabotage string
}

// setupReps is how many times a run performs its whole set-up; setup_s
// is their median and the last set-up is the one measured.
const setupReps = 3

// bench is one workload's live state after set-up.
type bench interface {
	// measure runs the workload's closed loop for d. tr is nil for an
	// untraced phase.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// layers adds the workload's per-layer metrics, computed from the
	// spans of the traced half and from the untraced half.
	layers(tr *tracer, untraced *phase, m metrics)
	close() error
}

// prepareFunc generates what a workload's client side needs from the
// seed, once per run and untimed, and returns the workload's set-up.
type prepareFunc func(cfg config) (setupFunc, error)

// setupFunc does everything before the first measured operation; rep
// numbers the set-up within the run. runWorkload times it.
type setupFunc func(rep int) (bench, error)

// workloadDef is one named workload. scaled selects reporting at reference
// host speed (see calibrationRef); ingest's time goes to fsyncs and file
// writes, which do not track the CPU calibration (scaling doubled its
// run-to-run spread), so it reports raw times.
type workloadDef struct {
	prepare prepareFunc
	scaled  bool
}

var workloads = map[string]workloadDef{
	"approx":     {prepareApprox, true},
	"serve_warm": {prepareServeWarm, true},
	"ingest":     {prepareIngest, false},
	"routed":     {prepareRouted, true},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// phase is what one measurement phase observed. lat holds the latency
// of every primary operation (the workload's end-to-end op); secondary
// holds the concurrent upload stream of routed.
type phase struct {
	elapsed   time.Duration
	lat       []time.Duration
	secondary []time.Duration
	attempted int
	failed    int
	firstErr  error
	// edges counts graph edges acknowledged by uploads in the phase.
	edges int64
	// cals holds the calibrations taken between the phase's windows.
	cals []time.Duration
	// windows, when set, splits lat into groups whose quantiles are
	// taken one by one (see opQuantile).
	windows [][]time.Duration
}

// fail records one failed operation; the first failure is kept for the
// error line.
func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// merge folds a client's phase into p.
func (p *phase) merge(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.secondary = append(p.secondary, q.secondary...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.edges += q.edges
	p.cals = append(p.cals, q.cals...)
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// window is how long the clients run between two calibrations.
const window = time.Second

// runClients runs one closed-loop client per function until d has
// passed and merges what they saw. Each client waits for every reply
// before sending its next request. Every window the clients stop, a
// garbage collection completes, and the host is calibrated while the
// program is idle; elapsed excludes those pauses. Collecting first keeps
// background marking out of the calibration and bounds the garbage a
// window can leave, which steadies the peak resident set.
func runClients(d time.Duration, clients ...func(deadline time.Time, p *phase)) *phase {
	end := time.Now().Add(d)
	out := &phase{}
	for {
		start := time.Now()
		deadline := start.Add(window)
		if deadline.After(end) {
			deadline = end
		}
		parts := make([]*phase, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			parts[i] = &phase{}
			wg.Add(1)
			go func(c func(time.Time, *phase), p *phase) {
				defer wg.Done()
				c(deadline, p)
			}(c, parts[i])
		}
		wg.Wait()
		out.elapsed += time.Since(start)
		for _, q := range parts {
			out.merge(q)
		}
		runtime.GC()
		out.cals = append(out.cals, calibrate())
		if !time.Now().Before(end) {
			return out
		}
	}
}

// The host this benchmark was built on changes speed by tens of percent
// over minutes, and by up to three times for minutes at a stretch (a
// fixed sort ran 230–365 ms within one minute). Every time-based
// end-to-end metric is therefore reported at reference host speed:
// scaled by calibrationRef over the median calibration of the run,
// where a calibration times a fixed task that calls no repository code
// while the program is idle. calibrationRef is that task's median time
// on the reference host (see README.md), so on a quiet reference host
// the scaled values equal the raw ones.
const calibrationRef = 3500 * time.Microsecond

var calibrationInput = func() []int64 {
	rng := rand.New(rand.NewSource(1))
	s := make([]int64, 1<<15)
	for i := range s {
		s[i] = rng.Int63()
	}
	return s
}()

// calibrate returns the median of five timings of copying and sorting
// calibrationInput.
func calibrate() time.Duration {
	buf := make([]int64, len(calibrationInput))
	ds := make([]time.Duration, 5)
	for i := range ds {
		start := time.Now()
		copy(buf, calibrationInput)
		slices.Sort(buf)
		ds[i] = time.Since(start)
	}
	return quantile(ds, 0.5)
}

// slowdown is the median of cals relative to calibrationRef: above 1
// when the host ran slower than the reference.
func slowdown(cals []time.Duration) float64 {
	return float64(quantile(cals, 0.5)) / float64(calibrationRef)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	m[name] = metric{Value: v, Unit: metricUnits[name]}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, perLayer those of a
// traced run. metricUnits gives every metric's unit; BENCHMARK.json
// must agree with it (the smoke test checks).
var (
	endToEnd = []string{"setup_s", "peak_rss_mb", "ops_per_s", "op_p50_ms", "op_p90_ms"}
	perLayer = []string{
		"graph.unweighted_diameter_ms", "dist.build_ms", "dist.builds_per_call", "dist.ecc_query_us",
		"qsim.search_ms", "core.self_ms", "core.eval_ratio", "core.rounds",
		"svc.handler_us.small", "svc.handler_us.large", "svc.transport_us",
		"server.hit_us.small", "server.hit_us.large", "graph.digest_us.small", "graph.digest_us.large",
		"server.hit_ratio", "svc.shed_503", "svc.limited_429",
		"graph.parse_binary_ms", "graph.format_binary_ms", "svc.upload_mem_ms", "store.append_ms",
		"store.snapshot_s", "store.wal_bytes_per_edge", "store.open_s", "svc.recover_s",
		"upload.edges_per_s", "upload.p50_ms", "upload.p90_ms",
		"cluster.read_hop_us", "cluster.upload_hop_ms", "cluster.failovers", "cluster.sheds",
		"error_rate", "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_pct", "trace.spans",
	}
	metricUnits = map[string]string{
		"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",

		"graph.unweighted_diameter_ms": "ms", "dist.build_ms": "ms", "dist.builds_per_call": "count",
		"dist.ecc_query_us": "us", "qsim.search_ms": "ms", "core.self_ms": "ms", "core.eval_ratio": "ratio",
		"core.rounds":          "count",
		"svc.handler_us.small": "us", "svc.handler_us.large": "us", "svc.transport_us": "us",
		"server.hit_us.small": "us", "server.hit_us.large": "us",
		"graph.digest_us.small": "us", "graph.digest_us.large": "us",
		"server.hit_ratio": "ratio", "svc.shed_503": "count", "svc.limited_429": "count",
		"graph.parse_binary_ms": "ms", "graph.format_binary_ms": "ms", "svc.upload_mem_ms": "ms",
		"store.append_ms": "ms", "store.snapshot_s": "s", "store.wal_bytes_per_edge": "B",
		"store.open_s": "s", "svc.recover_s": "s",
		"upload.edges_per_s": "1/s", "upload.p50_ms": "ms", "upload.p90_ms": "ms",
		"cluster.read_hop_us": "us", "cluster.upload_hop_ms": "ms", "cluster.failovers": "count",
		"cluster.sheds": "count",
		"error_rate":    "ratio", "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
		"trace.overhead_pct": "%", "trace.spans": "count",
	}
)

// runWorkload sets the workload up setupReps times, measures the last
// set-up, and assembles the result line.
func runWorkload(w workloadDef, cfg config) (*result, error) {
	setup, err := w.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	var b bench
	var setups []float64 // at reference host speed
	for rep := 0; rep < setupReps; rep++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", rep, err)
			}
			b = nil
		}
		runtime.GC()
		start := time.Now()
		nb, err := setup(rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start).Seconds()
		if w.scaled {
			runtime.GC()
			took /= slowdown([]time.Duration{calibrate(), calibrate(), calibrate()})
		}
		setups = append(setups, took)
		b = nb
	}
	m := metrics{}
	res := &result{Metrics: m}
	phases, err := measure(b, cfg, w.scaled, m)
	if cerr := b.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", p.firstErr)
		}
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation completed")
	}
	res.Correct = res.Failed == 0
	if cfg.trace {
		m.set("error_rate", float64(res.Failed)/float64(res.Attempted))
	} else {
		m.set("setup_s", median(setups))
		m.set("peak_rss_mb", peakRSSMB())
	}
	return res, nil
}

// measure runs the measured phases and sets their metrics: one untraced
// phase, or an untraced and a traced half for a traced run.
func measure(b bench, cfg config, scaled bool, m metrics) ([]*phase, error) {
	if !cfg.trace {
		p, err := b.measure(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		s := 1.0
		if scaled {
			s = slowdown(p.cals)
		}
		p50, p90 := opQuantile(p, 0.50), opQuantile(p, 0.90)
		m.set("ops_per_s", rate(p)*s)
		m.set("op_p50_ms", p50/s)
		m.set("op_p90_ms", p90/s)
		fmt.Fprintf(os.Stderr, "perfbench: host slowdown %.3f (scaled: %v); unscaled ops_per_s %.6g op_p50_ms %.6g op_p90_ms %.6g\n",
			slowdown(p.cals), scaled, rate(p), p50, p90)
		return []*phase{p}, nil
	}
	un, err := b.measure(cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tp, err := b.measure(cfg.seconds/2, tr)
	if err != nil {
		return nil, err
	}
	for _, name := range perLayer {
		m.set(name, 0) // a layer the workload never calls stays 0
	}
	b.layers(tr, un, m)
	m.set("trace.untraced_ops_per_s", rate(un))
	m.set("trace.traced_ops_per_s", rate(tp))
	m.set("trace.overhead_pct", 100*(rate(un)/rate(tp)-1))
	m.set("trace.spans", float64(len(tr.spans)))
	path, err := tr.write(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return []*phase{un, tp}, nil
}

// opQuantile is the q-quantile of a phase's primary latencies in ms:
// over all of them, or, when the phase splits them into windows, the
// median of the windows' q-quantiles, so a burst of host slowness that
// covers a few windows does not move it.
func opQuantile(p *phase, q float64) float64 {
	if len(p.windows) == 0 {
		return ms(quantile(p.lat, q))
	}
	qs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		qs[i] = ms(quantile(w, q))
	}
	return median(qs)
}

// rate is a phase's primary operations per second.
func rate(p *phase) float64 { return float64(len(p.lat)) / p.elapsed.Seconds() }

func bytesReader(b []byte) io.Reader {
	if b == nil {
		return nil
	}
	return bytes.NewReader(b)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB; the
// daemon, the router and the load clients all live in this process.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// service is an http.Handler served on an ephemeral loopback port.
type service struct {
	url string
	srv *http.Server
	ln  net.Listener
}

func serve(h http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &service{
		url: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		ln:  ln,
	}
	go func() { _ = s.srv.Serve(ln) }() // returns ErrServerClosed on stop
	return s, nil
}

// stop closes the listener and waits for in-flight requests.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// newClient returns an HTTP client with its own connection pool and a
// per-request timeout, so a hung request fails instead of hanging.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: 30 * time.Second},
	}
}

// call sends one request and returns the status and the whole body.
func call(c *http.Client, method, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// waitReady polls url+"/healthz" until it answers 200.
func waitReady(c *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body, err := call(c, http.MethodGet, url+"/healthz", "", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s: status %d, %v, %s", url, code, err, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

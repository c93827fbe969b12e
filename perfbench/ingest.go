package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qcongest/internal/graph"
	"qcongest/internal/store"
	"qcongest/internal/svc"
)

// foldEvery is the store's default snapshot cadence; the probe store
// of a traced run folds at the same points the daemon's store does.
const foldEvery = 64

// upGraph is one pre-encoded upload with its client-side digest.
type upGraph struct {
	body   []byte
	digest string
	edges  int
}

// makeUploads generates count distinct RandomConnected graphs with
// weights up to 16 and encodes them in the binary codec. salt separates
// the pools of different workloads.
func makeUploads(cfg config, count int, salt int64) []upGraph {
	out := make([]upGraph, count)
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < count; i += workers {
				rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + salt*10_007 + int64(i)))
				g := graph.RandomWeights(graph.RandomConnected(cfg.size.ingestN, cfg.size.ingestM, rng), 16, rng)
				out[i] = upGraph{body: graph.FormatBinary(g), digest: graph.DigestString(g.Digest()), edges: g.M()}
			}
		}(w)
	}
	wg.Wait()
	if cfg.sabotage == "upload-digest" {
		out[0].digest = graph.DigestString(0)
	}
	return out
}

// ingestBench is the ingest workload: cycles of a fresh durable daemon
// receiving a cycle's worth of distinct binary uploads from one
// closed-loop client, then a close and a reopen of its data dir. A
// second client would overlap the other's uploads with the CPU-bound
// snapshot folds on a 2-vCPU host, and its tail latency would measure
// the scheduler.
type ingestBench struct {
	cfg     config
	rep     int
	uploads []upGraph
	cycles  int
	client  *http.Client

	recover []float64 // reopen-until-ready seconds, untraced cycles

	// Traced cycles replay every upload into a probe store and every
	// traceEvery-th into an in-memory daemon.
	probe      *store.Store
	memDaemon  *svc.Server
	probeN     atomic.Int64
	probeEdge  atomic.Int64
	mu         sync.Mutex
	walPerEdge []float64
}

// prepareIngest returns a set-up that generates and encodes one cycle's
// uploads and boots and closes one daemon, so the first measured cycle
// finds the code paths and the file system warm.
func prepareIngest(cfg config) (setupFunc, error) {
	return func(rep int) (bench, error) { return setupIngest(cfg, rep) }, nil
}

func setupIngest(cfg config, rep int) (bench, error) {
	b := &ingestBench{cfg: cfg, rep: rep, uploads: makeUploads(cfg, cfg.size.ingestCycle, 1), client: newClient()}
	dir := filepath.Join(cfg.dir, fmt.Sprintf("ingest-boot-%d", rep))
	d, err := svc.Open(b.daemonConfig(dir))
	if err != nil {
		return nil, fmt.Errorf("opening daemon: %w", err)
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return b, os.RemoveAll(dir)
}

func (b *ingestBench) daemonConfig(dir string) svc.Config {
	return svc.Config{DataDir: dir, MaxGraphs: len(b.uploads) + 8}
}

// measure runs whole cycles while time remains; the last one may end
// after d. Every cycle folds the same number of times, so the share of
// uploads that pay a fold does not depend on where the time ran out.
func (b *ingestBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	deadline := time.Now().Add(d)
	p := &phase{}
	for time.Now().Before(deadline) {
		if err := b.cycle(tr, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// cycle runs one data dir's life: boot, every upload of the cycle,
// close, reopen, and the check that every acknowledged digest survived.
func (b *ingestBench) cycle(tr *tracer, p *phase) error {
	dir := filepath.Join(b.cfg.dir, fmt.Sprintf("ingest-%d-%d", b.rep, b.cycles))
	b.cycles++
	defer os.RemoveAll(dir)
	d, err := svc.Open(b.daemonConfig(dir))
	if err != nil {
		return fmt.Errorf("opening daemon: %w", err)
	}
	s, err := serve(d)
	if err != nil {
		d.Close()
		return err
	}
	if err := waitReady(b.client, s.url); err != nil {
		s.stop()
		d.Close()
		return err
	}
	if tr != nil {
		if err := b.openProbe(dir + "-probe"); err != nil {
			s.stop()
			d.Close()
			return err
		}
		defer b.closeProbe(dir + "-probe")
	}

	var next atomic.Int64
	byIndex := make([]time.Duration, len(b.uploads))
	var ackMu sync.Mutex
	var acked []string
	client := func(c *http.Client) func(time.Time, *phase) {
		return func(_ time.Time, cp *phase) {
			for n := 0; ; n++ {
				i := int(next.Add(1)) - 1
				if i >= len(b.uploads) {
					return
				}
				u := b.uploads[i]
				start := time.Now()
				_, err := upload(c, s.url, ctBinary, u.body, u.digest)
				lat := time.Since(start)
				cp.attempted++
				cp.lat = append(cp.lat, lat)
				byIndex[i] = lat
				if err != nil {
					cp.fail(err)
					continue
				}
				cp.edges += int64(u.edges)
				ackMu.Lock()
				acked = append(acked, u.digest)
				ackMu.Unlock()
				if tr != nil {
					id := tr.op()
					root := tr.record(id, 0, "client.upload", "", start, lat)
					if err := b.replay(tr, id, root, u, n%traceEvery == 0); err != nil {
						cp.fail(err)
					}
				}
			}
		}
	}
	// The client stops when the cycle's uploads run out, not at a deadline.
	up := runClients(0, client(b.client))
	p.merge(up)
	p.elapsed += up.elapsed
	// One window per fold interval, in upload order: each holds exactly
	// one fold-paying upload, wherever the host ran slow.
	for w := 0; w+foldEvery <= len(byIndex); w += foldEvery {
		p.windows = append(p.windows, byIndex[w:w+foldEvery])
	}
	if b.cfg.sabotage == "reopen-digest" {
		acked = append(acked, graph.DigestString(0))
	}

	err = s.stop()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("closing daemon: %w", err)
	}
	d, s = nil, nil
	// Collect the closed daemon's graphs before the reopen allocates its
	// own, so the run's memory peak is one daemon's, not two.
	runtime.GC()
	if tr != nil {
		var st *store.Store
		tr.timed(tr.op(), 0, "store.Open", "", func() {
			st, _, _, err = store.Open(store.Options{Dir: dir})
		})
		if err != nil {
			return fmt.Errorf("replaying data dir: %w", err)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	start := time.Now()
	d, err = svc.Open(b.daemonConfig(dir))
	if err != nil {
		return fmt.Errorf("reopening daemon: %w", err)
	}
	s, err = serve(d)
	if err == nil {
		err = waitReady(b.client, s.url)
	}
	if err != nil {
		d.Close()
		return fmt.Errorf("reopening daemon: %w", err)
	}
	if tr == nil {
		b.recover = append(b.recover, time.Since(start).Seconds())
	}
	missing, err := missingDigests(b.client, s.url, acked)
	if err != nil {
		p.fail(err)
	}
	for _, dg := range missing {
		p.fail(fmt.Errorf("acknowledged graph %s missing after reopen", dg))
	}
	err = s.stop()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// missingDigests lists the acknowledged digests the daemon at base does
// not hold: the durability gate.
func missingDigests(c *http.Client, base string, acked []string) ([]string, error) {
	code, body, err := call(c, http.MethodGet, base+"/v1/graphs", "", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("listing graphs: status %d: %v", code, err)
	}
	var list svc.GraphListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, fmt.Errorf("listing graphs: %w", err)
	}
	have := make(map[string]bool, len(list.Graphs))
	for _, g := range list.Graphs {
		have[g.Digest] = true
	}
	var missing []string
	for _, dg := range acked {
		if !have[dg] {
			missing = append(missing, dg)
		}
	}
	return missing, nil
}

func (b *ingestBench) openProbe(dir string) error {
	st, _, _, err := store.Open(store.Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		return fmt.Errorf("opening probe store: %w", err)
	}
	b.probe = st
	b.memDaemon = svc.New(svc.Config{MaxGraphs: len(b.uploads) + 8})
	b.probeN.Store(0)
	b.probeEdge.Store(0)
	return nil
}

func (b *ingestBench) closeProbe(dir string) {
	b.probe.Close()
	b.probe, b.memDaemon = nil, nil
	os.RemoveAll(dir)
}

// replay times the layer calls below one upload: the binary decode, the
// store's re-encode, a durable append to a probe store (folding it at
// the daemon's fold points), and, for every traceEvery-th upload, the
// whole handler stack of an in-memory daemon without a socket.
func (b *ingestBench) replay(tr *tracer, op, root int, u upGraph, viaHandler bool) error {
	var g *graph.Graph
	var err error
	tr.timed(op, root, "graph.ParseBinaryLimits", "", func() { g, err = graph.ParseBinaryLimits(u.body, 1<<17, 1<<21) })
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	tr.timed(op, root, "graph.FormatBinary", "", func() { graph.FormatBinary(g) })
	tr.timed(op, root, "store.AppendGraph", "", func() { err = b.probe.AppendGraph(g, nil) })
	if err != nil {
		return fmt.Errorf("replay append: %w", err)
	}
	edges := b.probeEdge.Add(int64(u.edges))
	if b.probeN.Add(1)%foldEvery == 0 {
		b.mu.Lock()
		b.walPerEdge = append(b.walPerEdge, float64(b.probe.Stats().WALBytes)/float64(edges))
		b.mu.Unlock()
		b.probeEdge.Add(-edges)
		tr.timed(op, root, "store.Snapshot", "", func() { err = b.probe.Snapshot() })
		if err != nil {
			return fmt.Errorf("replay snapshot: %w", err)
		}
	}
	if viaHandler {
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs", bytesReader(u.body))
		req.Header.Set("Content-Type", ctBinary)
		rec := httptest.NewRecorder()
		tr.timed(op, root, "svc.ServeHTTP.upload", "", func() { b.memDaemon.ServeHTTP(rec, req) })
		if rec.Code != http.StatusCreated {
			return fmt.Errorf("in-memory upload: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	return nil
}

func (b *ingestBench) layers(tr *tracer, un *phase, m metrics) {
	m.set("graph.parse_binary_ms", ms(quantile(tr.durations("graph.ParseBinaryLimits", ""), 0.5)))
	m.set("graph.format_binary_ms", ms(quantile(tr.durations("graph.FormatBinary", ""), 0.5)))
	m.set("svc.upload_mem_ms", ms(quantile(tr.durations("svc.ServeHTTP.upload", ""), 0.5)))
	m.set("store.append_ms", ms(quantile(tr.durations("store.AppendGraph", ""), 0.5)))
	m.set("store.snapshot_s", quantile(tr.durations("store.Snapshot", ""), 0.5).Seconds())
	m.set("store.open_s", quantile(tr.durations("store.Open", ""), 0.5).Seconds())
	b.mu.Lock()
	m.set("store.wal_bytes_per_edge", median(b.walPerEdge))
	b.mu.Unlock()
	m.set("svc.recover_s", median(b.recover))
	setUploadMetrics(un.lat, un.edges, un.elapsed, m)
}

// setUploadMetrics reports an untraced phase's upload stream.
func setUploadMetrics(lat []time.Duration, edges int64, elapsed time.Duration, m metrics) {
	m.set("upload.edges_per_s", float64(edges)/elapsed.Seconds())
	m.set("upload.p50_ms", ms(quantile(lat, 0.5)))
	m.set("upload.p90_ms", ms(quantile(lat, 0.9)))
}

func (b *ingestBench) close() error { return nil }

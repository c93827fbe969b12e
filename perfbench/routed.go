package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"qcongest/internal/cluster"
	"qcongest/internal/svc"
)

// routedBench is the routed workload: one client reads the warm mix and
// another uploads distinct graphs, at the same time, through an
// in-process router in front of one durable shard leader.
type routedBench struct {
	mix     *readMix
	daemon  *svc.Server
	dsvc    *service
	router  *cluster.Router
	rsvc    *service
	reader  *http.Client
	writer  *http.Client
	direct  *http.Client
	rng     *rand.Rand
	uploads []upGraph
	next    int // index of the next upload
	every   time.Duration

	mu             sync.Mutex
	readHop, upHop []time.Duration
}

// prepareRouted builds the read mix's client side and the upload pool;
// the timed set-up boots a durable shard leader and the router in front
// of it, registers the read graphs through the router and warms every
// read.
func prepareRouted(cfg config) (setupFunc, error) {
	mix, smallBody, largeSpec, err := newReadMix(cfg)
	if err != nil {
		return nil, err
	}
	// Enough distinct graphs for the paced writer never to run out.
	uploads := makeUploads(cfg, int(cfg.seconds/cfg.size.routedUploadEvery)+8, 2)
	return func(rep int) (bench, error) {
		return setupRouted(cfg, rep, mix, smallBody, largeSpec, uploads)
	}, nil
}

func setupRouted(cfg config, rep int, mix *readMix, smallBody []byte, largeSpec svc.GenSpec, uploads []upGraph) (bench, error) {
	b := &routedBench{mix: mix, reader: newClient(), writer: newClient(), direct: newClient(),
		rng: rand.New(rand.NewSource(cfg.seed*37 + 1)), every: cfg.size.routedUploadEvery, uploads: uploads}
	var err error
	b.daemon, err = svc.Open(svc.Config{
		DataDir:   filepath.Join(cfg.dir, fmt.Sprintf("routed-%d", rep)),
		MaxGraphs: len(b.uploads) + 8,
	})
	if err != nil {
		return nil, fmt.Errorf("opening daemon: %w", err)
	}
	if b.dsvc, err = serve(b.daemon); err != nil {
		b.daemon.Close()
		return nil, err
	}
	if err := waitReady(b.direct, b.dsvc.url); err != nil {
		b.close()
		return nil, err
	}
	b.router, err = cluster.NewRouter(cluster.Config{
		Topology:     cluster.Topology{Shards: []cluster.Shard{{Name: "s0", Nodes: []string{b.dsvc.url}}}},
		PromoteAfter: -1, // a one-node shard has no follower to promote
	})
	if err != nil {
		b.close()
		return nil, fmt.Errorf("starting router: %w", err)
	}
	if b.rsvc, err = serve(b.router); err != nil {
		b.close()
		return nil, err
	}
	if err := registerReadGraphs(b.reader, b.rsvc.url, mix, smallBody, largeSpec); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *routedBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	b.mix.corrupt()
	reads := func(deadline time.Time, p *phase) {
		for n := 0; time.Now().Before(deadline); n++ {
			op := b.mix.pick(b.rng)
			start := time.Now()
			err := op.do(b.reader, b.rsvc.url)
			lat := time.Since(start)
			p.attempted++
			p.lat = append(p.lat, lat)
			if err != nil {
				p.fail(err)
				continue
			}
			if tr != nil && n%traceEvery == 0 {
				if err := b.replayRead(tr, op, start, lat); err != nil {
					p.fail(err)
				}
			}
		}
	}
	// The writer is a closed loop with a floor on its send interval: it
	// waits for each reply, then for the rest of its slot.
	uploads := func(deadline time.Time, p *phase) {
		for n := 0; time.Now().Before(deadline) && b.next < len(b.uploads); n++ {
			u := b.uploads[b.next]
			b.next++
			start := time.Now()
			slot := start.Add(b.every)
			_, err := upload(b.writer, b.rsvc.url, ctBinary, u.body, u.digest)
			lat := time.Since(start)
			p.attempted++
			p.secondary = append(p.secondary, lat)
			if err != nil {
				p.fail(err)
				continue
			}
			p.edges += int64(u.edges)
			if tr != nil && n%traceEvery == 0 {
				if err := b.replayUpload(tr, u, start, lat); err != nil {
					p.fail(err)
				}
			}
			time.Sleep(time.Until(slot))
		}
	}
	return runClients(d, reads, uploads), nil
}

// replayRead sends the same read routed and then direct to the shard
// leader, back to back; the difference is the router hop.
func (b *routedBench) replayRead(tr *tracer, op readOp, start time.Time, lat time.Duration) error {
	id := tr.op()
	root := tr.record(id, 0, "client.read", op.g.class, start, lat)
	var routedErr, directErr error
	routed := tr.timed(id, root, "cluster.Router", op.g.class, func() { routedErr = op.do(b.reader, b.rsvc.url) })
	direct := tr.timed(id, root, "svc.direct", op.g.class, func() { directErr = op.do(b.direct, b.dsvc.url) })
	if routedErr != nil || directErr != nil {
		return fmt.Errorf("read replay: routed %v, direct %v", routedErr, directErr)
	}
	b.mu.Lock()
	b.readHop = append(b.readHop, routed-direct)
	b.mu.Unlock()
	return nil
}

// replayUpload re-sends an acknowledged upload routed and then direct.
// Both are idempotent repeats (200, created=false), so the difference
// is the router's share: body buffering, the re-decode that finds the
// shard, and the forward.
func (b *routedBench) replayUpload(tr *tracer, u upGraph, start time.Time, lat time.Duration) error {
	id := tr.op()
	root := tr.record(id, 0, "client.upload", "", start, lat)
	var routedErr, directErr error
	routed := tr.timed(id, root, "cluster.Router.upload", "", func() { routedErr = repeatUpload(b.writer, b.rsvc.url, u) })
	direct := tr.timed(id, root, "svc.direct.upload", "", func() { directErr = repeatUpload(b.direct, b.dsvc.url, u) })
	if routedErr != nil || directErr != nil {
		return fmt.Errorf("upload replay: routed %v, direct %v", routedErr, directErr)
	}
	b.mu.Lock()
	b.upHop = append(b.upHop, routed-direct)
	b.mu.Unlock()
	return nil
}

// repeatUpload sends an already acknowledged graph again; the daemon
// must answer 200 with the same digest and created=false.
func repeatUpload(c *http.Client, base string, u upGraph) error {
	code, body, err := call(c, http.MethodPost, base+"/v1/graphs", ctBinary, u.body)
	if err != nil {
		return err
	}
	var r svc.UploadResponse
	if code != http.StatusOK || json.Unmarshal(body, &r) != nil || r.Created || r.Digest != u.digest {
		return fmt.Errorf("repeat upload of %s: status %d: %s", u.digest, code, body)
	}
	return nil
}

func (b *routedBench) layers(_ *tracer, un *phase, m metrics) {
	b.mu.Lock()
	m.set("cluster.read_hop_us", us(quantile(b.readHop, 0.5)))
	m.set("cluster.upload_hop_ms", ms(quantile(b.upHop, 0.5)))
	b.mu.Unlock()
	setUploadMetrics(un.secondary, un.edges, un.elapsed, m)
	code, body, err := call(b.direct, http.MethodGet, b.rsvc.url+"/metrics", "", nil)
	var rm cluster.RouterMetrics
	if err == nil && code == http.StatusOK && json.Unmarshal(body, &rm) == nil {
		var failovers, sheds int64
		for _, s := range rm.Shards {
			failovers += s.ReadFailovers
			sheds += s.WriteSheds
		}
		m.set("cluster.failovers", float64(failovers))
		m.set("cluster.sheds", float64(sheds))
	}
	if snap, err := svc.NewClient(b.dsvc.url).Metrics(); err == nil {
		setDaemonLedger(snap, m)
	}
}

func (b *routedBench) close() error {
	var err error
	if b.rsvc != nil {
		err = b.rsvc.stop()
	}
	if b.router != nil {
		b.router.Close()
	}
	if b.dsvc != nil {
		if serr := b.dsvc.stop(); err == nil {
			err = serr
		}
	}
	if cerr := b.daemon.Close(); err == nil {
		err = cerr
	}
	return err
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"qcongest/internal/svc"
)

// traceEvery picks the fixed sample of traced operations: every
// traceEvery-th operation of each client.
const traceEvery = 8

// serveBench is the serve_warm workload: two closed-loop clients read
// the warm mix over loopback HTTP from one durable daemon.
type serveBench struct {
	mix     *readMix
	daemon  *svc.Server
	svc     *service
	clients []*http.Client
	rngs    []*rand.Rand

	mu        sync.Mutex
	transport []time.Duration // client latency minus handler time, per traced read
}

// prepareServeWarm builds the read mix's client side; the timed set-up
// boots a durable daemon, registers both graphs and warms every read.
func prepareServeWarm(cfg config) (setupFunc, error) {
	mix, smallBody, largeSpec, err := newReadMix(cfg)
	if err != nil {
		return nil, err
	}
	return func(rep int) (bench, error) { return setupServeWarm(cfg, rep, mix, smallBody, largeSpec) }, nil
}

func setupServeWarm(cfg config, rep int, mix *readMix, smallBody []byte, largeSpec svc.GenSpec) (bench, error) {
	d, err := svc.Open(svc.Config{DataDir: filepath.Join(cfg.dir, fmt.Sprintf("serve-%d", rep))})
	if err != nil {
		return nil, fmt.Errorf("opening daemon: %w", err)
	}
	s, err := serve(d)
	if err != nil {
		d.Close()
		return nil, err
	}
	b := &serveBench{mix: mix, daemon: d, svc: s}
	for i := 0; i < 2; i++ {
		b.clients = append(b.clients, newClient())
		b.rngs = append(b.rngs, rand.New(rand.NewSource(cfg.seed*31+int64(i))))
	}
	if err := registerReadGraphs(b.clients[0], s.url, mix, smallBody, largeSpec); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// registerReadGraphs uploads the read mix's graphs through base, checks
// the digests against the client-side copies and warms every read.
func registerReadGraphs(c *http.Client, base string, mix *readMix, smallBody []byte, largeSpec svc.GenSpec) error {
	if err := waitReady(c, base); err != nil {
		return err
	}
	if _, err := upload(c, base, ctBinary, smallBody, mix.small.digest); err != nil {
		return fmt.Errorf("small graph: %w", err)
	}
	genBody, err := json.Marshal(svc.UploadRequest{Gen: &largeSpec})
	if err != nil {
		return err
	}
	if _, err := upload(c, base, ctJSON, genBody, mix.large.digest); err != nil {
		return fmt.Errorf("large graph: %w", err)
	}
	return mix.warm(c, base)
}

// upload is the upload gate: the daemon must answer 201 with the
// client-side digest and created=true.
func upload(c *http.Client, base, contentType string, body []byte, wantDigest string) (svc.UploadResponse, error) {
	var r svc.UploadResponse
	code, resp, err := call(c, http.MethodPost, base+"/v1/graphs", contentType, body)
	if err != nil {
		return r, fmt.Errorf("upload: %w", err)
	}
	if code != http.StatusCreated {
		return r, fmt.Errorf("upload: status %d: %s", code, resp)
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return r, fmt.Errorf("upload: decoding answer: %w", err)
	}
	if !r.Created || r.Digest != wantDigest {
		return r, fmt.Errorf("upload: answered digest %s created=%v, client-side digest %s", r.Digest, r.Created, wantDigest)
	}
	return r, nil
}

func (b *serveBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	b.mix.corrupt()
	var clients []func(time.Time, *phase)
	for i := range b.clients {
		c, rng := b.clients[i], b.rngs[i]
		clients = append(clients, func(deadline time.Time, p *phase) {
			for n := 0; time.Now().Before(deadline); n++ {
				op := b.mix.pick(rng)
				start := time.Now()
				err := op.do(c, b.svc.url)
				lat := time.Since(start)
				p.attempted++
				p.lat = append(p.lat, lat)
				if err != nil {
					p.fail(err)
					continue
				}
				if tr != nil && n%traceEvery == 0 {
					id := tr.op()
					root := tr.record(id, 0, "client.read", op.g.class, start, lat)
					handler, err := b.mix.replayLocal(tr, id, root, b.daemon, op)
					if err != nil {
						p.fail(err)
						continue
					}
					b.mu.Lock()
					b.transport = append(b.transport, lat-handler)
					b.mu.Unlock()
				}
			}
		})
	}
	return runClients(d, clients...), nil
}

func (b *serveBench) layers(tr *tracer, _ *phase, m metrics) {
	for _, class := range []string{"small", "large"} {
		m.set("svc.handler_us."+class, us(quantile(tr.durations("svc.ServeHTTP", class), 0.5)))
		m.set("server.hit_us."+class, us(quantile(tr.durations("server.SketchCache.Skeleton", class), 0.5)))
		m.set("graph.digest_us."+class, us(quantile(tr.durations("graph.Digest", class), 0.5)))
	}
	b.mu.Lock()
	m.set("svc.transport_us", us(quantile(b.transport, 0.5)))
	b.mu.Unlock()
	st := b.daemon.Cache().Stats()
	if lookups := st.Hits + st.Misses + st.Waits; lookups > 0 {
		m.set("server.hit_ratio", float64(st.Hits)/float64(lookups))
	}
	if snap, err := svc.NewClient(b.svc.url).Metrics(); err == nil {
		setDaemonLedger(snap, m)
	}
}

// setDaemonLedger copies the daemon's shed and rate-limit counters.
// Errors5x counts 503 sheds: a warm read has no other 5xx path.
func setDaemonLedger(snap svc.MetricsSnapshot, m metrics) {
	var shed, limited int64
	for _, c := range snap.Requests {
		shed += c.Errors5x
	}
	for _, k := range snap.RateLimits {
		limited += k.Limited
	}
	m.set("svc.shed_503", float64(shed))
	m.set("svc.limited_429", float64(limited))
}

func (b *serveBench) close() error {
	err := b.svc.stop()
	if cerr := b.daemon.Close(); err == nil {
		err = cerr
	}
	return err
}

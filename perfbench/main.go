// Command perfbench is the repository's benchmark: one process per
// workload, each driving the qcongest library, the qcongestd handler
// stack and the qrouter proxy in-process behind loopback listeners, and
// printing one JSON result line. See README.md in this directory for the
// workloads, the metrics and the per-layer → end-to-end map.
//
//	perfbench --workload approx --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries every end-to-end metric; with
// --trace 1 the run is split into an untraced and a traced half and the
// result carries every per-layer metric, including the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// defaultSeed is the workload seed used when --seed is absent.
// heldOutSeed is never used while tuning a change: a claimed gain must
// also hold on it.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// runCap bounds one whole run, set-up and teardown included, so a daemon
// that never becomes ready or a request that hangs ends the run with an
// error line instead of a hang.
const runCap = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for run data and span files")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		size:     fullSize,
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail("creating output directory: %v", err)
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fail("creating run directory: %v", err)
	}
	cfg.dir = dir
	cfg.spanDir = filepath.Join(*out, "spans")
	watchdog := time.AfterFunc(runCap, func() {
		os.RemoveAll(dir)
		fail("run exceeded %s; aborted", runCap)
	})
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-stop
		os.RemoveAll(dir)
		fail("stopped by %v", sig)
	}()
	res, err := runWorkload(w, cfg)
	watchdog.Stop()
	os.RemoveAll(dir)
	if err != nil {
		fail("%s: %v", cfg.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed a correctness gate\n", cfg.workload, res.Failed, res.Attempted)
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

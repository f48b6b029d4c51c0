// Command perfbench is the repository's benchmark: one process starts an
// in-process tcpkv server on a fresh emulated NVMM device behind a
// loopback listener, preloads 100 000 keys, and drives it with one
// tcpkv client from closed-loop goroutines for a timed window.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload read_mostly --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off; with --trace 1 it runs the window twice, untraced then traced, and
// prints the per-layer metrics. After the window it drains durability,
// crashes the device, recovers, and checks every key. The last line of
// standard output is one JSON object; the exit code is non-zero on any
// value mismatch or failed crash/recover check. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"syscall"
	"time"

	"efactory/internal/tcpkv"
	"efactory/internal/ycsb"
)

// setups is how many times a run builds a preloaded, quiescent server;
// setup_s is their median.
const setups = 5

// metric is one reported number. samples is the count behind a
// percentile or mean (0 when not applicable).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

type report struct {
	lines []metric
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.lines = append(r.lines, metric{name, value, unit, samples})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.lines {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func main() {
	os.Exit(realMain(time.Now()))
}

func realMain(start time.Time) int {
	wlName := flag.String("workload", "", "workload: read_mostly, read_batch, write_batch or shared_mixed")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "timed window length in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	wl, err := findWorkload(*wlName)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		return 2
	}
	b := &bench{wl: wl, seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *traced == 1}
	res, err := b.run(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.print(res)
	if !res.correct {
		return 1
	}
	return 0
}

type bench struct {
	wl     workload
	seed   uint64
	window time.Duration
	traced bool
}

type result struct {
	correct bool
	verdict string
	c       counts
	rep     report
	layers  report
	subs    string // per-sub-window values of the gated metrics
}

func (b *bench) run(start time.Time) (*result, error) {
	keys := newKeyTable(numKeys)
	cfg := serverConfig()
	var e *env
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.stopServer(); err != nil {
				return nil, err
			}
			e = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		var err error
		if e, err = setUp(cfg, keys, b.traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer func() {
		if e.srv != nil {
			e.stopServer()
		}
	}()

	r := &run{wl: b.wl, e: e, keys: keys, led: newLedger(numKeys, b.wl.workers),
		zipf: ycsb.NewScrambledZipfian(numKeys)}
	// write_batch's window may run on past --seconds until its cleaner
	// cycles are complete, at most this much longer.
	maxExtend := b.window
	latCap := int((b.window + maxExtend).Seconds()) * maxCallsPerSecond
	lagCap := int((b.window + maxExtend) / lagEvery)
	ws := make([]*worker, b.wl.workers)
	for i := range ws {
		ws[i] = newWorker(i, b.seed, latCap, lagCap)
	}
	res := &result{}
	res.rep.add("setup_s", median(times), "s", len(times))
	if b.traced {
		b.tracedWindows(r, ws, res)
	} else {
		b.timedWindow(r, ws, maxExtend, res)
	}

	// Peak RSS through set-up and the timed window; the correctness check
	// below holds a second server over the device and is not counted.
	res.rep.add("mem_peak_mb", peakRSSMiB(), "MiB", 1)

	// Correctness, outside every timing: drain, crash, recover, check.
	res.correct = true
	if p := r.firstE.Load(); p != nil {
		res.correct = false
		res.verdict = fmt.Sprintf("read mismatch: %v", *p)
	}
	if err := e.quiesce(time.Minute); err != nil {
		return nil, fmt.Errorf("drain before crash: %w", err)
	}
	rec, err := e.crashRecover(b.seed)
	if err != nil {
		return nil, err
	}
	res.rep.add("recovery_s", rec.Seconds(), "s", 1)
	res.layers.add("store.recovery_s", rec.Seconds(), "s", 1)
	bad, first := verifyAll(e.cli, keys, r.led)
	if bad > 0 {
		res.correct = false
		res.verdict = fmt.Sprintf("%d keys wrong after crash/recover, first: %v", bad, first)
	}
	if res.correct {
		res.verdict = fmt.Sprintf("ok: every read checked; all %d keys hold their newest acknowledged value after crash and recovery", numKeys)
	}
	return res, nil
}

// setUp builds a preloaded server and returns once it is quiescent:
// durability backlog 0 on every shard, no cleaning, one GC done.
func setUp(cfg tcpkv.Config, keys keyTable, metered bool) (*env, error) {
	e, err := newEnv(cfg, metered)
	if err != nil {
		return nil, err
	}
	if err := preload(e.cli, keys); err != nil {
		e.stopServer()
		return nil, err
	}
	if err := e.quiesce(time.Minute); err != nil {
		e.stopServer()
		return nil, err
	}
	runtime.GC()
	return e, nil
}

// subWindow is the length of the slices a timed window is cut into
// (write_batch cuts at cleaner cycles instead; see run.window). The gated
// latency, throughput and CPU metrics are medians over the slices, so a
// burst of interference on the shared host that spoils one slice does not
// move them.
const subWindow = 3 * time.Second

// timedWindow measures the end-to-end metrics with tracing off.
func (b *bench) timedWindow(r *run, ws []*worker, maxExtend time.Duration, res *result) {
	st0 := r.e.srv.Stats()
	bounds := r.window(ws, b.window, maxExtend, subWindow)
	st1 := r.e.srv.Stats()
	rep := &res.rep

	var p50s, rates, cpus []float64
	var gated []uint32
	nGated := 0
	for k := 1; k < len(bounds); k++ {
		gated = gated[:0]
		for i, w := range ws {
			for _, s := range w.lat[bounds[k-1].n[i]:bounds[k].n[i]] {
				if isPut(s) == b.wl.gatedPut {
					gated = append(gated, s&^putBit)
				}
			}
		}
		nGated += len(gated)
		if v, _, ok := percentile(gated, 0.50); ok {
			p50s = append(p50s, float64(v)/1e3)
		}
		if okOps := bounds[k].ok - bounds[k-1].ok; okOps > 0 {
			wall := bounds[k].at.Sub(bounds[k-1].at)
			rates = append(rates, float64(okOps)/wall.Seconds())
			cpus = append(cpus, (bounds[k].cpu-bounds[k-1].cpu).Seconds()*1e6/float64(okOps))
		}
	}
	res.subs = fmt.Sprintf("sub-windows: call_p50_us %.1f, ok_ops_per_s %.0f, cpu_us_per_op %.1f", p50s, rates, cpus)
	for _, m := range []struct {
		name, unit string
		vals       []float64
	}{
		{"call_p50_us", "us", p50s}, {"ok_ops_per_s", "1/s", rates}, {"cpu_us_per_op", "us", cpus},
	} {
		if len(m.vals) == len(bounds)-1 {
			rep.add(m.name, median(m.vals), m.unit, nGated)
		}
	}

	// Whole-window diagnostics.
	var c counts
	var gets, puts, lags []uint32
	lost := 0
	for _, w := range ws {
		c.merge(w.gets)
		c.merge(w.puts)
		lags = append(lags, w.lag...)
		lost += w.lost
		for _, s := range w.lat {
			if isPut(s) {
				puts = append(puts, s&^putBit)
			} else {
				gets = append(gets, s)
			}
		}
	}
	res.c = c
	addLatency(rep, "get", gets)
	addLatency(rep, "put", puts)
	if v, _, ok := percentile(lags, 0.99); ok {
		rep.add("durability_lag_p99_us", float64(v), "us", len(lags))
	}
	rep.add("failed_share", c.failedShare(), "ratio", c.attempted)
	wall := bounds[len(bounds)-1].at.Sub(bounds[0].at)
	rep.add("window_s", wall.Seconds(), "s", len(bounds)-1)
	rep.add("clean_runs", float64(st1.Cleanings-st0.Cleanings), "count", 1)
	rep.add("invalidated_versions", float64(st1.GetInvalidated+st1.BGInvalidated-st0.GetInvalidated-st0.BGInvalidated), "count", 1)
	if lost > 0 {
		rep.add("latency_samples_lost", float64(lost), "count", 1)
	}
}

func isPut(sample uint32) bool { return sample&putBit != 0 }

// addLatency reports the p50 and p99 of one call type's latencies, each
// only when at least minBeyond samples lie beyond it.
func addLatency(rep *report, kind string, ns []uint32) {
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p99", 0.99}} {
		if v, _, ok := percentile(ns, p.q); ok {
			rep.add(kind+"_"+p.name+"_us", float64(v)/1e3, "us", len(ns))
		}
	}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// gatedEndToEnd lists the end-to-end metrics BENCHMARK.json gates: the
// ones every workload produces, never zero, and steady from run to run.
// The rest of the report is diagnostic: a get_* or put_* metric that one
// workload cannot produce, durability lag (zero without writes),
// failed_share (zero on the read workloads) and the p99s, whose run-to-run
// spread on a shared 2-vCPU host exceeds any usable bound.
var gatedEndToEnd = []string{"setup_s", "call_p50_us", "ok_ops_per_s", "cpu_us_per_op", "mem_peak_mb"}

func (b *bench) print(res *result) {
	mode := "end-to-end, tracing off"
	lines := res.rep.lines
	if b.traced {
		mode = "per-layer, traced run"
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d (%s)\n", b.wl.name, b.seed, int(b.window.Seconds()), mode)
	for _, m := range lines {
		fmt.Printf("  %-34s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	if b.traced {
		fmt.Println("per-layer:")
		for _, m := range res.layers.lines {
			fmt.Printf("  %-34s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
		}
	}
	if res.subs != "" {
		fmt.Println(res.subs)
	}
	fmt.Printf("key ops attempted=%d ok=%d failed=%d mismatches=%d\n", res.c.attempted, res.c.ok, res.c.failed, res.c.mismatches)
	fmt.Printf("correct=%v: %s\n", res.correct, res.verdict)

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	if b.traced {
		for _, name := range perLayerNames {
			if m, ok := res.layers.get(name); ok {
				out[name] = jm{m.value, m.unit}
			}
		}
	} else {
		for _, name := range gatedEndToEnd {
			if m, ok := res.rep.get(name); ok {
				out[name] = jm{m.value, m.unit}
			}
		}
	}
	attempted := res.c.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.correct, attempted, res.c.failed, out})
	fmt.Println(string(line))
}

package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"efactory/internal/tcpkv"
	"efactory/internal/ycsb"
)

const (
	numKeys  = 100_000
	keyLen   = 16
	maxBatch = 64
	// lagEvery is the durability-lag sampling cadence: coarse, so the
	// sampler's engine-lock acquisitions stay a small fraction of the
	// server's work.
	lagEvery = 2 * time.Millisecond
	// maxCallsPerSecond sizes each worker's latency buffer; calls past
	// it are counted as lost samples.
	maxCallsPerSecond = 50_000
	// putBit marks a latency sample as a write call; the low 31 bits hold
	// nanoseconds (saturating at about 2.1 s).
	putBit = 1 << 31
)

// workload is one closed-loop traffic mix over the shared keyspace.
type workload struct {
	name     string
	workers  int     // closed-loop goroutines sharing the one client
	getFrac  float64 // single-op workloads: share of Gets (YCSB mix)
	batch    int     // >0: every call is a batch of this many distinct keys
	batchPut bool    // batch workloads: PutBatch (true) or GetBatch (false)
	// gatedPut makes the write call, not the read call, the one whose
	// latency call_p50_us reports.
	gatedPut bool
	// minCleanings extends the timed window until the cleaner has
	// finished this many runs inside it.
	minCleanings int
}

// workloads each stress different layers; README.md gives the reasons.
var workloads = []workload{
	// The optimistic one-sided GET with RPC fallback on hot keys.
	{name: "read_mostly", workers: 1, getFrac: ycsb.WorkloadB.GetFrac},
	// The multi-key one-sided read state machine, over settled data.
	{name: "read_batch", workers: 1, batch: maxBatch},
	// Batched allocation, WRITE bursts, background verify and cleaning.
	{name: "write_batch", workers: 1, batch: maxBatch, batchPut: true, gatedPut: true, minCleanings: 3},
	// Two callers contending on the mux, one-sided channel and engine lock.
	{name: "shared_mixed", workers: 2, getFrac: ycsb.WorkloadA.GetFrac, gatedPut: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// keyTable holds every key's bytes, formatted once: "k" + 15 zero-padded
// decimal digits of the index, so keys are distinct and 16 B.
type keyTable struct{ keys [][]byte }

func newKeyTable(n int) keyTable {
	buf := make([]byte, n*keyLen)
	keys := make([][]byte, n)
	for i := range keys {
		k := buf[i*keyLen : (i+1)*keyLen : (i+1)*keyLen]
		copy(k, fmt.Sprintf("k%015d", i))
		keys[i] = k
	}
	return keyTable{keys: keys}
}

// run is one timed window of a workload against one env.
type run struct {
	wl     workload
	e      *env
	keys   keyTable
	led    *ledger
	zipf   *ycsb.Zipfian
	stop   atomic.Bool
	firstE atomic.Pointer[error] // first value mismatch, for the report
}

// worker is one closed-loop caller. Every buffer it touches in the loop is
// allocated before the window opens, so the harness allocates nothing
// while timing and the Go runtime metrics describe the program alone.
type worker struct {
	id   int
	rng  *rand.Rand
	lat  []uint32 // call latencies, putBit-tagged
	lost int      // calls whose latency did not fit in lat
	lag  []uint32 // durability-lag samples in µs (worker 0 only)
	gets counts   // key reads
	puts counts   // key writes
	// Published after every call, for the window's boundary snapshots.
	nDone  atomic.Int64 // len(lat)
	okDone atomic.Int64 // gets.ok + puts.ok

	idx   []uint32 // batch key indexes (distinct)
	floor []uint32 // per batch key: ledger floor when the read was issued
	bkeys [][]byte
	bvals [][]byte
	errs  []error
	drawn []uint32 // per key: stamp of the last batch that drew it
	stamp uint32
}

func newWorker(id int, seed uint64, latCap, lagCap int) *worker {
	w := &worker{
		id:    id,
		rng:   rand.New(rand.NewPCG(seed, uint64(id)+1)),
		lat:   make([]uint32, 0, latCap),
		lag:   make([]uint32, 0, lagCap),
		idx:   make([]uint32, maxBatch),
		floor: make([]uint32, maxBatch),
		bkeys: make([][]byte, maxBatch),
		bvals: make([][]byte, maxBatch),
		errs:  make([]error, maxBatch),
		drawn: make([]uint32, numKeys),
	}
	for i := range w.bvals {
		w.bvals[i] = make([]byte, valueLen)
	}
	// Touch the sample buffers now so page faults land outside the window.
	clear(w.lat[:latCap])
	clear(w.lag[:lagCap])
	return w
}

// reset empties the worker's samples and counts between windows.
func (w *worker) reset() {
	w.lat, w.lag, w.lost, w.gets, w.puts = w.lat[:0], w.lag[:0], 0, counts{}, counts{}
	w.nDone.Store(0)
	w.okDone.Store(0)
}

func (w *worker) record(d time.Duration, put bool) {
	if len(w.lat) == cap(w.lat) {
		w.lost++
		return
	}
	ns := uint64(d)
	if ns >= putBit {
		ns = putBit - 1
	}
	if put {
		ns |= putBit
	}
	w.lat = append(w.lat, uint32(ns))
}

// drawDistinct fills w.idx/w.bkeys with n distinct Zipfian key indexes.
func (w *worker) drawDistinct(r *run, n int) {
	w.stamp++
	for i := 0; i < n; {
		k := uint32(r.zipf.Next(w.rng))
		if w.drawn[k] == w.stamp {
			continue
		}
		w.drawn[k] = w.stamp
		w.idx[i] = k
		w.bkeys[i] = r.keys.keys[k]
		i++
	}
}

func (r *run) mismatch(err error) {
	r.firstE.CompareAndSwap(nil, &err)
}

// checkRead classifies one key's read outcome. It reports whether the
// value was wrong (a mismatch); a returned error, ErrNotFound included,
// counts as a plain failure since every key was preloaded.
func (r *run) checkRead(w *worker, idx, floor uint32, val []byte, err error) {
	if err != nil {
		w.gets.add(err, false)
		return
	}
	if cerr := checkValue(val, idx, floor, r.led.issued[idx].Load()); cerr != nil {
		r.mismatch(fmt.Errorf("key %d: %w", idx, cerr))
		w.gets.add(nil, true)
		return
	}
	w.gets.add(nil, false)
}

// loop drives closed-loop calls until r.stop is set.
func (r *run) loop(w *worker) {
	cli := r.e.cli
	eng := r.e.srv.Store().Shard(0)
	var nextLag time.Time
	for !r.stop.Load() {
		if w.id == 0 {
			if now := time.Now(); !now.Before(nextLag) {
				_, age := eng.DurabilityLag()
				if len(w.lag) < cap(w.lag) {
					w.lag = append(w.lag, uint32(min(age/1000, 1<<32-1)))
				}
				nextLag = now.Add(lagEvery)
			}
		}
		switch {
		case r.wl.batch > 0 && r.wl.batchPut:
			r.putBatch(w, cli)
		case r.wl.batch > 0:
			r.getBatch(w, cli)
		case w.rng.Float64() < r.wl.getFrac:
			r.get(w, cli)
		default:
			r.put(w, cli)
		}
		w.nDone.Store(int64(len(w.lat)))
		w.okDone.Store(int64(w.gets.ok + w.puts.ok))
	}
}

func (r *run) get(w *worker, cli *tcpkv.Client) {
	idx := uint32(r.zipf.Next(w.rng))
	floor := r.led.floor[idx].Load()
	t0 := time.Now()
	val, err := cli.Get(r.keys.keys[idx])
	w.record(time.Since(t0), false)
	r.checkRead(w, idx, floor, val, err)
}

func (r *run) put(w *worker, cli *tcpkv.Client) {
	idx := uint32(r.zipf.Next(w.rng))
	ver := r.led.begin(w.id, idx)
	encodeValue(w.bvals[0], idx, ver)
	t0 := time.Now()
	err := cli.Put(r.keys.keys[idx], w.bvals[0])
	w.record(time.Since(t0), true)
	w.errs[0] = err
	r.led.end(w.id, w.errs[:1])
	w.puts.add(err, false)
}

func (r *run) getBatch(w *worker, cli *tcpkv.Client) {
	n := r.wl.batch
	w.drawDistinct(r, n)
	for i := 0; i < n; i++ {
		w.floor[i] = r.led.floor[w.idx[i]].Load()
	}
	t0 := time.Now()
	vals, errs := cli.GetBatch(w.bkeys[:n])
	w.record(time.Since(t0), false)
	for i := 0; i < n; i++ {
		r.checkRead(w, w.idx[i], w.floor[i], vals[i], errs[i])
	}
}

func (r *run) putBatch(w *worker, cli *tcpkv.Client) {
	n := r.wl.batch
	w.drawDistinct(r, n)
	for i := 0; i < n; i++ {
		encodeValue(w.bvals[i], w.idx[i], r.led.begin(w.id, w.idx[i]))
	}
	t0 := time.Now()
	errs := cli.PutBatchInto(w.bkeys[:n], w.bvals[:n], w.errs)
	w.record(time.Since(t0), true)
	r.led.end(w.id, errs)
	for _, err := range errs {
		w.puts.add(err, false)
	}
}

const (
	// maxWorkers bounds workload.workers.
	maxWorkers = 2
	// maxBounds bounds the sub-window boundaries one window records.
	maxBounds = 256
	// cleanPoll is how often a phased window looks for a finished
	// cleaning run.
	cleanPoll = 20 * time.Millisecond
)

// boundary is the state at one sub-window edge.
type boundary struct {
	at  time.Time
	cpu time.Duration     // process user+system CPU time
	n   [maxWorkers]int64 // per worker: latency samples recorded
	ok  int64             // key ops that succeeded, all workers
}

func snapshot(ws []*worker, at time.Time) boundary {
	b := boundary{at: at, cpu: cpuTime()}
	for i, w := range ws {
		b.n[i] = w.nDone.Load()
		b.ok += w.okDone.Load()
	}
	return b
}

// window runs the workers for at least d and returns the sub-window
// boundaries it passed, the window's start first. Sub-windows last sub,
// except for a workload with minCleanings: its boundaries fall where a
// cleaning run finishes, so each sub-window is one cleaner cycle, and the
// window runs on until it holds minCleanings of them. Either way the
// window ends on the first boundary past d, or at d+maxExtend.
func (r *run) window(ws []*worker, d, maxExtend, sub time.Duration) []boundary {
	for _, w := range ws {
		w.reset()
	}
	bounds := make([]boundary, 0, maxBounds)
	cleanings := r.e.srv.Stats().Cleanings
	r.stop.Store(false)
	t0 := time.Now()
	bounds = append(bounds, snapshot(ws, t0))
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			r.loop(w)
		}(w)
	}
	for len(bounds) < maxBounds {
		var now time.Time
		if r.wl.minCleanings > 0 {
			time.Sleep(cleanPoll)
			now = time.Now()
			c := r.e.srv.Stats().Cleanings
			if c == cleanings && now.Sub(t0) < d+maxExtend {
				continue
			}
			cleanings = c
		} else {
			time.Sleep(time.Until(t0.Add(time.Duration(len(bounds)) * sub)))
			now = time.Now()
		}
		bounds = append(bounds, snapshot(ws, now))
		el := now.Sub(t0)
		if el >= d+maxExtend || (el >= d && len(bounds)-1 >= r.wl.minCleanings) {
			break
		}
	}
	r.stop.Store(true)
	wg.Wait()
	return bounds
}

// preload writes version 0 of every key with PutBatch(maxBatch) calls.
func preload(cli *tcpkv.Client, keys keyTable) error {
	vals := make([][]byte, maxBatch)
	for i := range vals {
		vals[i] = make([]byte, valueLen)
	}
	errs := make([]error, maxBatch)
	for lo := 0; lo < len(keys.keys); lo += maxBatch {
		hi := min(lo+maxBatch, len(keys.keys))
		for i := lo; i < hi; i++ {
			encodeValue(vals[i-lo], uint32(i), 0)
		}
		errs = cli.PutBatchInto(keys.keys[lo:hi], vals[:hi-lo], errs)
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("preload key %d: %w", lo+i, err)
			}
		}
	}
	return nil
}

// verifyAll reads every key back and checks it against the ledger; it
// returns how many keys failed and the first failure.
func verifyAll(cli *tcpkv.Client, keys keyTable, led *ledger) (int, error) {
	bad := 0
	var first error
	for lo := 0; lo < len(keys.keys); lo += maxBatch {
		hi := min(lo+maxBatch, len(keys.keys))
		vals, errs := cli.GetBatch(keys.keys[lo:hi])
		for i := lo; i < hi; i++ {
			err := errs[i-lo]
			if err == nil {
				err = checkValue(vals[i-lo], uint32(i), led.floor[i].Load(), led.issued[i].Load())
			}
			if err != nil {
				bad++
				if first == nil {
					first = fmt.Errorf("key %d: %w", i, err)
				}
			}
		}
	}
	return bad, first
}

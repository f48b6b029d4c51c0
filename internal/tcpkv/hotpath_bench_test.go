// Client write hot-path benchmarks over a real loopback connection pair
// (pipelined RPC mux + one-sided data channel) against an in-process
// server. Go benchmarks count allocations across ALL goroutines, so a
// "0 allocs/op" result here certifies the whole round trip — client
// encode, mux writer, server read/decode/handle/respond, client demux
// and decode, one-sided WRITE burst and ack — allocation-free in steady
// state. CI greps these results as the alloc-budget gate.
package tcpkv

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"efactory/internal/nvm"
)

// startBenchServer is startServer for benchmarks and alloc-regression
// tests: a server on a loopback listener with cleaning enabled so a long
// overwrite workload never exhausts the log.
func startBenchServer(tb testing.TB) (*Server, string) {
	tb.Helper()
	cfg := Config{
		Buckets:        4096,
		PoolSize:       64 << 20,
		VerifyTimeout:  50 * time.Millisecond,
		BGInterval:     200 * time.Microsecond,
		CleanThreshold: 0.15,
		BGBatch:        16,
	}
	srv, err := NewServer(nvm.New(cfg.DeviceSize()), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func benchDial(tb testing.TB, addr string) *Client {
	tb.Helper()
	cl, err := Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return cl
}

func benchKVs(n, vlen int) (keys, vals [][]byte) {
	keys = make([][]byte, n)
	vals = make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%04d", i))
		v := make([]byte, vlen)
		for j := range v {
			v[j] = byte('a' + i%26)
		}
		vals[i] = v
	}
	return keys, vals
}

// measureAllocsPerPut runs n PUTs and returns the average heap
// allocations each one cost, counted across all goroutines (client mux
// writer/reader, server handlers, background verifier included).
func measureAllocsPerPut(tb testing.TB, cl *Client, keys, vals [][]byte, n int) float64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := cl.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
			tb.Fatalf("put %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestPutAllocFreeAcrossReconnect pins the two pooled-scratch claims the
// benchmarks cannot express: the steady-state PUT path stays (near)
// allocation-free in absolute terms, and the pools survive a reconnect —
// SetPipelineDepth tears down the connection pair and redials, and the
// package-level slot/frame/burst pools must keep amortizing rather than
// being rebuilt per generation.
func TestPutAllocFreeAcrossReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is load-sensitive under -short")
	}
	if raceEnabled {
		t.Skip("the race runtime's own bookkeeping allocates per op")
	}
	_, addr := startBenchServer(t)
	cl := benchDial(t, addr)
	keys, vals := benchKVs(64, 256)
	// Warm every pool: call slots, frame buffers, burst scratch, server
	// handler scratch.
	for i := 0; i < 256; i++ {
		if err := cl.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
			t.Fatalf("warm put %d: %v", i, err)
		}
	}
	// Background goroutines (GC workers, the server's BG ticker) add a
	// handful of allocations on their own schedule; a 0.5/op budget over
	// 2000 ops rejects any per-op allocation while absorbing that noise.
	const budget = 0.5
	if avg := measureAllocsPerPut(t, cl, keys, vals, 2000); avg > budget {
		t.Fatalf("steady-state PUT allocates %.3f/op, budget %.1f", avg, budget)
	}
	// Reconnect: new connection generation, same pools.
	if err := cl.SetPipelineDepth(8); err != nil {
		t.Fatalf("SetPipelineDepth: %v", err)
	}
	for i := 0; i < 64; i++ {
		if err := cl.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
			t.Fatalf("post-reconnect warm put %d: %v", i, err)
		}
	}
	if avg := measureAllocsPerPut(t, cl, keys, vals, 2000); avg > budget {
		t.Fatalf("post-reconnect PUT allocates %.3f/op, budget %.1f", avg, budget)
	}
}

// BenchmarkPut measures the single-op client PUT: one pipelined alloc
// RPC plus a one-sided value WRITE and its ack.
func BenchmarkPut(b *testing.B) {
	_, addr := startBenchServer(b)
	cl := benchDial(b, addr)
	keys, vals := benchKVs(256, 256)
	// Warm every pooled scratch (call slots, frame buffers, burst
	// buffers, server handler scratch) before counting.
	for i := 0; i < len(keys); i++ {
		if err := cl.Put(keys[i], vals[i]); err != nil {
			b.Fatalf("warm put %d: %v", i, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
			b.Fatalf("put %d: %v", i, err)
		}
	}
}

// BenchmarkPutBatch measures the batched client PUT: one TPutBatch RPC
// (server applies it run-to-completion per shard) plus one one-sided
// WRITE burst — a single syscall carrying every value frame — and its
// acks. Reported per op, where one op is a 64-key batch.
func BenchmarkPutBatch(b *testing.B) {
	const width = 64
	_, addr := startBenchServer(b)
	cl := benchDial(b, addr)
	keys, vals := benchKVs(width, 256)
	errs := make([]error, 0, width)
	// Warm pooled scratch.
	for i := 0; i < 4; i++ {
		for _, err := range cl.PutBatchInto(keys, vals, errs) {
			if err != nil {
				b.Fatalf("warm batch: %v", err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, err := range cl.PutBatchInto(keys, vals, errs) {
			if err != nil {
				b.Fatalf("batch %d op %d: %v", i, j, err)
			}
		}
	}
}

// settle waits until every key reads back one-sidedly: background
// verification has flagged each durable, so the read benchmarks measure
// the optimistic path, not its RPC fallback.
func settle(b *testing.B, cl *Client, keys [][]byte) {
	b.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		before := cl.FallbackReads
		_, errs := cl.GetBatch(keys)
		for _, err := range errs {
			if err != nil {
				b.Fatalf("settle: %v", err)
			}
		}
		if cl.FallbackReads == before {
			return
		}
		if time.Now().After(deadline) {
			b.Fatal("keys never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reportAllocsPerKey reports the heap allocations of the timed loop per
// key op, counted across all goroutines like -benchmem.
func reportAllocsPerKey(b *testing.B, before *runtime.MemStats, keyOps int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(keyOps), "allocs/key")
}

// BenchmarkGet measures the single-key hybrid GET over settled data: a
// one-sided entry READ and a one-sided object READ, each one frame each
// way. The returned value copy is the caller's, so one allocation per key
// is the floor.
func BenchmarkGet(b *testing.B) {
	_, addr := startBenchServer(b)
	cl := benchDial(b, addr)
	keys, vals := benchKVs(256, 256)
	for i, err := range cl.PutBatch(keys, vals) {
		if err != nil {
			b.Fatalf("put %d: %v", i, err)
		}
	}
	settle(b, cl, keys)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Get(keys[i%len(keys)]); err != nil {
			b.Fatalf("get %d: %v", i, err)
		}
	}
	b.StopTimer()
	reportAllocsPerKey(b, &before, b.N)
}

// BenchmarkGetBatch measures GetBatch(64) over settled data: one doorbell
// burst per round (entry READs, then object READs), each one syscall each
// way. Reported per op (one 64-key batch) and per key.
func BenchmarkGetBatch(b *testing.B) {
	const width = 64
	_, addr := startBenchServer(b)
	cl := benchDial(b, addr)
	keys, vals := benchKVs(width, 256)
	for i, err := range cl.PutBatch(keys, vals) {
		if err != nil {
			b.Fatalf("put %d: %v", i, err)
		}
	}
	settle(b, cl, keys)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := cl.GetBatch(keys)
		for j, err := range errs {
			if err != nil {
				b.Fatalf("batch %d key %d: %v", i, j, err)
			}
		}
	}
	b.StopTimer()
	reportAllocsPerKey(b, &before, b.N*width)
}

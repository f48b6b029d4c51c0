package main

import (
	"errors"
	"testing"
	"time"

	"efactory/internal/tcpkv"
	"efactory/internal/trace"
	"efactory/internal/ycsb"
)

func TestPercentileReportsOnlyWithTenBeyond(t *testing.T) {
	samples := func(n int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(n - i) // reversed: percentile must sort
		}
		return s
	}
	v, beyond, ok := percentile(samples(1000), 0.99)
	if !ok || v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %d beyond %d ok %v, want 990 beyond 10 ok", v, beyond, ok)
	}
	if _, beyond, ok := percentile(samples(999), 0.99); ok || beyond != 9 {
		t.Fatalf("p99 of 999 samples: beyond %d ok %v, want 9 and not reported", beyond, ok)
	}
	if v, _, ok := percentile(samples(21), 0.5); !ok || v != 11 {
		t.Fatalf("p50 of 1..21 = %d ok %v, want 11", v, ok)
	}
	if _, _, ok := percentile(samples(19), 0.5); ok {
		t.Fatal("p50 of 19 samples has 9 beyond; must not be reported")
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestFailedShareCountsBatchPartialFailures(t *testing.T) {
	var c counts
	// One 64-key batch: 13 keys refused (pool full), one value mismatch.
	for i := 0; i < 64; i++ {
		var err error
		if i%5 == 0 { // keys 0, 5, ..., 60
			err = tcpkv.ErrServerFull
		}
		c.add(err, i == 63)
	}
	// A second, fully successful batch.
	var d counts
	for i := 0; i < 64; i++ {
		d.add(nil, false)
	}
	c.merge(d)
	if c.attempted != 128 || c.failed != 14 || c.mismatches != 1 || c.ok != 114 {
		t.Fatalf("counts = %+v, want attempted 128 failed 14 mismatches 1 ok 114", c)
	}
	if got, want := c.failedShare(), 14.0/128; got != want {
		t.Fatalf("failedShare = %v, want %v", got, want)
	}
	if (counts{}).failedShare() != 0 {
		t.Fatal("failedShare of nothing attempted must be 0")
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := trace.Span{StartNS: 100, EndNS: 200}
	kids := []trace.Span{
		{StartNS: 110, EndNS: 130},
		{StartNS: 120, EndNS: 150}, // overlaps the first: union 110..150
		{StartNS: 190, EndNS: 220}, // sticks out of the parent: counts 190..200
		{StartNS: 160, EndNS: 160}, // empty
		{StartNS: 50, EndNS: 90},   // wholly outside
	}
	if got := selfNS(parent, kids); got != 50 {
		t.Fatalf("self = %d, want 50 (100 minus 40 minus 10)", got)
	}
	if got := selfNS(parent, nil); got != 100 {
		t.Fatalf("self without children = %d, want 100", got)
	}
	if got := selfNS(parent, []trace.Span{{StartNS: 0, EndNS: 300}}); got != 0 {
		t.Fatalf("self under a covering child = %d, want 0", got)
	}
}

func TestCheckValueRejectsStaleForeignAndTornValues(t *testing.T) {
	v := make([]byte, valueLen)
	encodeValue(v, 5, 3)
	if err := checkValue(v, 5, 3, 3); err != nil {
		t.Fatalf("exact version rejected: %v", err)
	}
	if err := checkValue(v, 5, 0, 9); err != nil {
		t.Fatalf("version inside [floor, issued] rejected: %v", err)
	}
	for _, tc := range []struct {
		name        string
		idx, lo, hi uint32
		mutate      func([]byte)
		want        error
	}{
		{"stale", 5, 4, 9, nil, errStale},
		{"future", 5, 0, 2, nil, errFuture},
		{"foreign", 6, 0, 9, nil, errForeign},
		{"torn filler", 5, 0, 9, func(b []byte) { b[100] ^= 1 }, errTorn},
	} {
		b := append([]byte(nil), v...)
		if tc.mutate != nil {
			tc.mutate(b)
		}
		if err := checkValue(b, tc.idx, tc.lo, tc.hi); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := checkValue(v[:valueLen-1], 5, 0, 9); !errors.Is(err, errTorn) {
		t.Errorf("short value: err = %v, want %v", err, errTorn)
	}
}

func TestLedgerFloorWithOverlappingWriters(t *testing.T) {
	l := newLedger(10, 2)
	ok := []error{nil}
	v1 := l.begin(0, 7)
	v2 := l.begin(1, 7)
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions %d, %d; want 1, 2", v1, v2)
	}
	// The later-started write acks first; the earlier one may still land
	// after it, so the floor may only rise to version 1.
	l.end(1, ok)
	if f := l.floor[7].Load(); f != 1 {
		t.Fatalf("floor after overlapping ack = %d, want 1", f)
	}
	l.end(0, ok)
	v3 := l.begin(0, 7)
	l.end(0, []error{tcpkv.ErrServerFull})
	if f := l.floor[7].Load(); f != 1 {
		t.Fatalf("a refused write raised the floor to %d", f)
	}
	v4 := l.begin(0, 7)
	l.end(0, ok)
	if f, iss := l.floor[7].Load(), l.issued[7].Load(); f != v4 || iss != v4 || v3 != 3 {
		t.Fatalf("floor %d issued %d after a lone ack of version %d", f, iss, v4)
	}
}

// TestLoopBookkeepingAllocatesNothing pins the harness side of the timed
// loop to zero allocations, so go.allocs_per_op measures the program.
func TestLoopBookkeepingAllocatesNothing(t *testing.T) {
	r := &run{keys: newKeyTable(numKeys), led: newLedger(numKeys, 1), zipf: ycsb.NewScrambledZipfian(numKeys)}
	w := newWorker(0, 1, 1<<16, 16)
	allocs := testing.AllocsPerRun(100, func() {
		w.drawDistinct(r, maxBatch)
		for i := 0; i < maxBatch; i++ {
			encodeValue(w.bvals[i], w.idx[i], r.led.begin(0, w.idx[i]))
		}
		r.led.end(0, w.errs)
		for i := 0; i < maxBatch; i++ {
			r.checkRead(w, w.idx[i], r.led.floor[w.idx[i]].Load(), w.bvals[i], nil)
		}
		w.record(time.Microsecond, true)
	})
	if allocs != 0 {
		t.Fatalf("loop bookkeeping allocates %v times per batch", allocs)
	}
	if w.gets.mismatches != 0 {
		t.Fatalf("self-consistent values reported as mismatches: %+v", w.gets)
	}
}

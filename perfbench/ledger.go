package main

import (
	"sync"
	"sync/atomic"
)

// ledger tracks, per key, which versions a read may legally return.
// Versions are numbered per key in the order writes start (the preload is
// version 0). A read may return version v when v was issued before the
// read ended and no write that started after v's acknowledgement was
// itself acknowledged before the read started. floor[k] is the oldest
// version that rule still admits; it only rises.
//
// Writers that overlap on one key (two goroutines, one hot key) may land
// in either order, so a write's acknowledgement raises the floor only to
// the oldest write of that key still in flight when it started.
type ledger struct {
	issued []atomic.Uint32 // newest version issued per key
	floor  []atomic.Uint32 // oldest version a read started now may return

	mu       sync.Mutex   // orders write begin/end against each other
	inflight [][]inflight // per worker: writes started and not yet ended
}

type inflight struct {
	idx, ver, low uint32
}

func newLedger(keys, workers int) *ledger {
	l := &ledger{
		issued:   make([]atomic.Uint32, keys),
		floor:    make([]atomic.Uint32, keys),
		inflight: make([][]inflight, workers),
	}
	for w := range l.inflight {
		l.inflight[w] = make([]inflight, 0, maxBatch)
	}
	return l
}

// begin starts a write of key idx by worker w and returns its version.
func (l *ledger) begin(w int, idx uint32) uint32 {
	l.mu.Lock()
	v := l.issued[idx].Load() + 1
	l.issued[idx].Store(v)
	low := v
	for o, fl := range l.inflight {
		if o == w {
			continue
		}
		for _, f := range fl {
			if f.idx == idx && f.ver < low {
				low = f.ver
			}
		}
	}
	l.inflight[w] = append(l.inflight[w], inflight{idx: idx, ver: v, low: low})
	l.mu.Unlock()
	return v
}

// end finishes every write worker w began since its last end; errs[i] is
// the outcome of the i-th of them (nil = acknowledged).
func (l *ledger) end(w int, errs []error) {
	l.mu.Lock()
	for i, f := range l.inflight[w] {
		if errs[i] == nil && f.low > l.floor[f.idx].Load() {
			l.floor[f.idx].Store(f.low)
		}
	}
	l.inflight[w] = l.inflight[w][:0]
	l.mu.Unlock()
}

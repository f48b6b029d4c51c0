// Package nvm emulates byte-addressable non-volatile main memory (NVMM)
// with an explicit volatility boundary, the property that makes remote
// crash consistency hard (paper §2.2).
//
// Stores land in a volatile cache-line overlay (modelling the CPU cache /
// DDIO path: DMA from the NIC is written to the cache domain, not to the
// persistent media). A line becomes durable only when it is explicitly
// flushed (CLFLUSH equivalent) or when the crash model decides it was
// naturally evicted before the failure. Crash discards the overlay — except
// lines the eviction model kept — exactly reproducing "data may partially
// exist in the NVM" from the paper.
//
// The failure-atomicity unit of real NVMM is 8 bytes; eviction and flushing
// operate on 64-byte cache lines. Both granularities are modelled: flushes
// and eviction are per-line, and Write8 provides the 8-byte atomic store
// used for metadata.
package nvm

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"
)

// LineSize is the cache-line size in bytes: the granularity of flushes and
// of data loss at a crash.
const LineSize = 64

// AtomicUnit is the failure-atomicity unit of NVMM in bytes.
const AtomicUnit = 8

// Device is the interface storage engines program against. *Memory is the
// canonical in-process implementation; *FileBacked adds real durability.
type Device interface {
	// Size returns the capacity in bytes.
	Size() int
	// Read copies len(dst) bytes at off into dst from the coherent view
	// (volatile overlay if dirty, else persistent media).
	Read(off int, dst []byte)
	// Write copies src to off in the volatile domain. The data is NOT
	// durable until the covering lines are flushed.
	Write(off int, src []byte)
	// Write8 performs an 8-byte atomic store at off (which must be
	// 8-byte aligned) in the volatile domain.
	Write8(off int, v uint64)
	// Read8 performs an 8-byte load from the coherent view.
	Read8(off int) uint64
	// Flush makes the cache lines covering [off, off+n) durable
	// (CLFLUSH/CLWB equivalent).
	Flush(off, n int)
	// Drain is the SFENCE equivalent. Flush in this model completes
	// synchronously, so Drain is a semantic no-op kept for API fidelity;
	// its cost is charged by the simulation's cost model.
	Drain()
	// Zero durably clears [off, off+n): both the volatile overlay and the
	// persistent media. Used when a data pool is recycled for log
	// cleaning, so stale object headers cannot be mistaken for live ones.
	Zero(off, n int)
}

// Memory is an emulated NVMM module.
//
// It is safe for concurrent use; the simulator runs single-threaded but the
// TCP transport accesses a Memory from multiple goroutines.
type Memory struct {
	mu      sync.Mutex
	persist []byte  // durable contents
	dirty   overlay // volatile overlay of cache lines
	flushes int     // lines flushed, for stats/tests
}

var _ Device = (*Memory)(nil)

// New returns a zeroed Memory of the given size in bytes. Size is rounded
// up to a whole number of cache lines.
func New(size int) *Memory {
	if size <= 0 {
		panic("nvm: size must be positive")
	}
	if r := size % LineSize; r != 0 {
		size += LineSize - r
	}
	return &Memory{persist: make([]byte, size), dirty: newOverlay(size / LineSize)}
}

// Size returns the capacity in bytes.
func (m *Memory) Size() int { return len(m.persist) }

func (m *Memory) check(off, n int) {
	if off < 0 || n < 0 || off+n > len(m.persist) {
		panic(fmt.Sprintf("nvm: access [%d, %d) out of range [0, %d)", off, off+n, len(m.persist)))
	}
}

// Read copies len(dst) bytes from the coherent (cache-visible) view.
func (m *Memory) Read(off int, dst []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.check(off, len(dst))
	m.readLocked(off, dst)
}

func (m *Memory) readLocked(off int, dst []byte) {
	copy(dst, m.persist[off:off+len(dst)])
	// Overlay dirty lines.
	end := off + len(dst)
	for li := off / LineSize; li <= (end-1)/LineSize; li++ {
		line := m.dirty.line(li)
		if line == nil {
			continue
		}
		base := li * LineSize
		lo, hi := max(base, off), min(base+LineSize, end)
		copy(dst[lo-off:hi-off], line[lo-base:hi-base])
	}
}

// Write stores src at off in the volatile domain.
func (m *Memory) Write(off int, src []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.check(off, len(src))
	m.writeLocked(off, src)
}

func (m *Memory) writeLocked(off int, src []byte) {
	for len(src) > 0 {
		li := off / LineSize
		base := li * LineSize
		line := m.dirty.line(li)
		if line == nil {
			// Bring the line into the "cache" from persistent media.
			line = m.dirty.add(li)
			copy(line[:], m.persist[base:base+LineSize])
		}
		n := copy(line[off-base:], src)
		off += n
		src = src[n:]
	}
}

// Write8 performs an 8-byte atomic volatile store. off must be 8-byte
// aligned so the store cannot straddle the atomicity unit.
func (m *Memory) Write8(off int, v uint64) {
	if off%AtomicUnit != 0 {
		panic(fmt.Sprintf("nvm: Write8 at unaligned offset %d", off))
	}
	var b [8]byte
	putLE64(b[:], v)
	m.Write(off, b[:])
}

// Read8 performs an 8-byte load from the coherent view.
func (m *Memory) Read8(off int) uint64 {
	var b [8]byte
	m.Read(off, b[:])
	return le64(b[:])
}

// Flush persists the cache lines covering [off, off+n).
func (m *Memory) Flush(off, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		return
	}
	m.check(off, n)
	first := off / LineSize
	last := (off + n - 1) / LineSize
	for li := first; li <= last; li++ {
		m.flushLineLocked(li)
	}
}

func (m *Memory) flushLineLocked(li int) {
	line := m.dirty.line(li)
	if line == nil {
		return
	}
	copy(m.persist[li*LineSize:], line[:])
	m.dirty.remove(li)
	m.flushes++
}

// Drain is the SFENCE equivalent; see Device.Drain.
func (m *Memory) Drain() {}

// Zero durably clears [off, off+n); see Device.Zero.
func (m *Memory) Zero(off, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		return
	}
	m.check(off, n)
	clear(m.persist[off : off+n])
	end := off + n
	m.dirty.each(off/LineSize, (end-1)/LineSize, func(li int, line *[LineSize]byte) {
		base := li * LineSize
		lo, hi := max(base, off), min(base+LineSize, end)
		clear(line[lo-base : hi-base])
	})
}

// DirtyLines returns the number of cache lines whose contents are volatile.
func (m *Memory) DirtyLines() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dirty.n
}

// FlushedLines returns the cumulative number of line flushes, for tests and
// instrumentation.
func (m *Memory) FlushedLines() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushes
}

// ReadPersisted copies bytes from the persistent media only, ignoring the
// volatile overlay: the post-crash view. Intended for tests and recovery
// verification.
func (m *Memory) ReadPersisted(off int, dst []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.check(off, len(dst))
	copy(dst, m.persist[off:off+len(dst)])
}

// Crash simulates a power failure. Each dirty line independently survives
// (was evicted to media before the failure) with probability survival,
// drawn from a PRNG seeded with seed so crashes are reproducible; all other
// dirty lines revert to their last flushed contents. After Crash the
// overlay is empty, as caches are after a reboot.
//
// survival = 0 models "nothing unflushed survives"; survival = 1 models
// "everything already made it to media". Values in between produce the
// partial, torn states the paper's consistency machinery must tolerate.
func (m *Memory) Crash(seed uint64, survival float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rng := rand.New(rand.NewPCG(seed, 0xda7a_b10c))
	// One draw per dirty line in ascending line order, for determinism.
	m.dirty.each(0, len(m.persist)/LineSize-1, func(li int, line *[LineSize]byte) {
		if rng.Float64() < survival {
			copy(m.persist[li*LineSize:], line[:])
		}
	})
	m.dirty = newOverlay(len(m.persist) / LineSize)
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// The overlay keeps its lines in a slab of fixed-size chunks, recycled
// through a free list as lines are flushed, and finds them through a
// two-level index from line number to slab slot. An index page is
// allocated the first time a line in its range goes dirty and kept once
// the range is clean again. Dirtying a line therefore allocates only on
// a first touch of a new index page or when the slab grows past its peak
// — once per thousands of lines on a large device, where a map would
// allocate on every growth step. Both sizes scale with the device, so a
// small test device stays small.
const (
	maxPageShift  = 13   // index pages of up to 8192 lines (32 KiB)
	maxChunkLines = 4096 // slab chunks of up to 256 KiB
)

// overlay is the volatile cache-line overlay: the lines written since
// their last flush, keyed by line index.
type overlay struct {
	pageShift  uint      // an index page covers 1<<pageShift lines
	chunkLines int       // lines per slab chunk
	index      [][]int32 // index[li>>pageShift][li&mask] = slab slot + 1; 0 = clean
	chunks     [][][LineSize]byte
	used       int     // slab slots ever handed out
	free       []int32 // slab slots released by flushes
	n          int     // dirty lines
}

// newOverlay sizes an empty overlay for a device of lines cache lines:
// about 256 index pages and 512 slab chunks cover the whole device.
func newOverlay(lines int) overlay {
	shift := uint(max(bits.Len(uint(lines)), 9) - 8)
	return overlay{
		pageShift:  min(shift, maxPageShift),
		chunkLines: min(max(lines>>9, 64), maxChunkLines),
	}
}

func (o *overlay) page(li int) (p, i int) {
	return li >> o.pageShift, li & (1<<o.pageShift - 1)
}

// line returns line li's volatile contents, or nil if li is clean.
func (o *overlay) line(li int) *[LineSize]byte {
	p, i := o.page(li)
	if p >= len(o.index) || o.index[p] == nil || o.index[p][i] == 0 {
		return nil
	}
	return o.slot(o.index[p][i] - 1)
}

func (o *overlay) slot(s int32) *[LineSize]byte {
	return &o.chunks[int(s)/o.chunkLines][int(s)%o.chunkLines]
}

// add marks the clean line li dirty and returns its (stale) slab line.
func (o *overlay) add(li int) *[LineSize]byte {
	p, i := o.page(li)
	if p >= len(o.index) {
		o.index = append(o.index, make([][]int32, p+1-len(o.index))...)
	}
	if o.index[p] == nil {
		o.index[p] = make([]int32, 1<<o.pageShift)
	}
	var s int32
	if k := len(o.free); k > 0 {
		s, o.free = o.free[k-1], o.free[:k-1]
	} else {
		if o.used == len(o.chunks)*o.chunkLines {
			o.chunks = append(o.chunks, make([][LineSize]byte, o.chunkLines))
		}
		s = int32(o.used)
		o.used++
	}
	o.index[p][i] = s + 1
	o.n++
	return o.slot(s)
}

// remove marks the dirty line li clean, releasing its slab slot.
func (o *overlay) remove(li int) {
	p, i := o.page(li)
	o.free = append(o.free, o.index[p][i]-1)
	o.index[p][i] = 0
	o.n--
}

// each calls fn on every dirty line in [first, last], in ascending order.
func (o *overlay) each(first, last int, fn func(li int, line *[LineSize]byte)) {
	for li := first; li <= last; {
		p, i := o.page(li)
		if p >= len(o.index) {
			return
		}
		page := o.index[p]
		if page == nil {
			li += 1<<o.pageShift - i // skip the clean page
			continue
		}
		if page[i] != 0 {
			fn(li, o.slot(page[i]-1))
		}
		li++
	}
}

package nvm

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
)

// refMemory is the overlay's specification: a map of dirty lines, with
// a crash drawing one survival per dirty line in ascending line order.
type refMemory struct {
	persist []byte
	dirty   map[int][LineSize]byte
}

func (r *refMemory) write(off int, src []byte) {
	for len(src) > 0 {
		li, base := off/LineSize, off/LineSize*LineSize
		line, ok := r.dirty[li]
		if !ok {
			copy(line[:], r.persist[base:])
		}
		n := copy(line[off-base:], src)
		r.dirty[li] = line
		off, src = off+n, src[n:]
	}
}

// view returns the coherent view of the whole device.
func (r *refMemory) view() []byte {
	v := bytes.Clone(r.persist)
	for li, line := range r.dirty {
		copy(v[li*LineSize:], line[:])
	}
	return v
}

func (r *refMemory) flush(off, n int) {
	for li := off / LineSize; li <= (off+n-1)/LineSize; li++ {
		if line, ok := r.dirty[li]; ok {
			copy(r.persist[li*LineSize:], line[:])
			delete(r.dirty, li)
		}
	}
}

func (r *refMemory) zero(off, n int) {
	clear(r.persist[off : off+n])
	for li, line := range r.dirty {
		for i := range line {
			if p := li*LineSize + i; p >= off && p < off+n {
				line[i] = 0
			}
		}
		r.dirty[li] = line
	}
}

func (r *refMemory) crash(seed uint64, survival float64) {
	rng := rand.New(rand.NewPCG(seed, 0xda7a_b10c))
	lines := make([]int, 0, len(r.dirty))
	for li := range r.dirty {
		lines = append(lines, li)
	}
	slices.Sort(lines)
	for _, li := range lines {
		if rng.Float64() < survival {
			line := r.dirty[li]
			copy(r.persist[li*LineSize:], line[:])
		}
	}
	r.dirty = map[int][LineSize]byte{}
}

// TestOverlayMatchesMapModel drives Memory and the map specification
// with the same random writes, flushes, zeroes and partial crashes over
// several index pages and compares the coherent and persisted views and
// the dirty-line count after every step.
func TestOverlayMatchesMapModel(t *testing.T) {
	const size = 64<<10 + 4096 // spans many index pages and slab chunks
	rng := rand.New(rand.NewPCG(7, 7))
	m := New(size)
	ref := &refMemory{persist: make([]byte, size), dirty: map[int][LineSize]byte{}}
	got := make([]byte, size)
	for step := 0; step < 3000; step++ {
		off := rng.IntN(size)
		n := min(1+rng.IntN(300), size-off)
		switch k := rng.IntN(20); {
		case k < 12:
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(rng.Uint32())
			}
			m.Write(off, src)
			ref.write(off, src)
		case k < 17:
			m.Flush(off, n)
			ref.flush(off, n)
		case k < 19:
			m.Zero(off, n)
			ref.zero(off, n)
		default:
			seed := rng.Uint64()
			m.Crash(seed, 0.5)
			ref.crash(seed, 0.5)
		}
		if m.DirtyLines() != len(ref.dirty) {
			t.Fatalf("step %d: %d dirty lines, model has %d", step, m.DirtyLines(), len(ref.dirty))
		}
		m.Read(0, got)
		if !bytes.Equal(got, ref.view()) {
			t.Fatalf("step %d: coherent view diverges from the model", step)
		}
		m.ReadPersisted(0, got)
		if !bytes.Equal(got, ref.persist) {
			t.Fatalf("step %d: persisted view diverges from the model", step)
		}
	}
}

// TestOverlayReuseAllocatesNothing pins the overlay's allocation rule:
// once a region has been dirtied and flushed, dirtying it again reuses
// its index page and the slab lines the flush released.
func TestOverlayReuseAllocatesNothing(t *testing.T) {
	m := New(1 << 20)
	buf := make([]byte, 4096)
	cycle := func() {
		for off := 0; off < 256<<10; off += len(buf) {
			m.Write(off, buf)
		}
		m.Flush(0, 256<<10)
	}
	cycle()
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Fatalf("write/flush cycle over a warmed region allocates %.1f times", a)
	}
	if n := m.DirtyLines(); n != 0 {
		t.Fatalf("%d lines still dirty after the flush", n)
	}
}

package main

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"efactory/internal/trace"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (sorted in
// place) and how many samples lie strictly beyond its rank. ok is false
// when fewer than minBeyond samples lie beyond it, in which case the
// percentile is not reported.
func percentile(samples []uint32, q float64) (v uint32, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	slices.Sort(samples)
	rank := int(q*float64(n) + 0.999999999) // ceil without float drift at exact ranks
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond = n - rank
	return samples[rank-1], beyond, beyond >= minBeyond
}

// counts tallies key operations: every key of a batch counts once.
type counts struct {
	attempted  int
	ok         int
	failed     int // errors, value mismatches and ErrNotFound on preloaded keys
	mismatches int // the subset of failed that returned a wrong value
}

// add records one key op's outcome. A key op fails when the call returned
// an error for it or when its value did not check out (mismatch).
func (c *counts) add(err error, mismatch bool) {
	c.attempted++
	switch {
	case mismatch:
		c.failed++
		c.mismatches++
	case err != nil:
		c.failed++
	default:
		c.ok++
	}
}

func (c *counts) merge(o counts) {
	c.attempted += o.attempted
	c.ok += o.ok
	c.failed += o.failed
	c.mismatches += o.mismatches
}

// failedShare is failed key ops over attempted key ops.
func (c counts) failedShare() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// selfNS is a span's duration minus the part of it its children cover.
// Children may overlap each other and may stick out of the parent; only
// the union of their intervals inside the parent is subtracted.
func selfNS(parent trace.Span, children []trace.Span) uint64 {
	if parent.EndNS <= parent.StartNS {
		return 0
	}
	type iv struct{ lo, hi uint64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var covered, end uint64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.EndNS - parent.StartNS - covered
}

// Values are self-describing: bytes [0,8) hold the key index, [8,16) the
// version, and the rest a filler derived from both, so a value read back
// names the key and version it was written as and a torn or foreign value
// does not decode.
const valueLen = 256

func fillByte(idx, ver uint32, i int) byte { return byte(idx*31 + ver*7 + uint32(i)) }

// encodeValue writes key idx's version ver into dst (valueLen bytes).
func encodeValue(dst []byte, idx, ver uint32) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(idx))
	binary.LittleEndian.PutUint64(dst[8:], uint64(ver))
	for i := 16; i < len(dst); i++ {
		dst[i] = fillByte(idx, ver, i)
	}
}

var (
	errForeign = errors.New("value belongs to another key")
	errStale   = errors.New("value older than an acknowledged write")
	errFuture  = errors.New("value newer than any write issued")
	errTorn    = errors.New("value does not decode")
)

// checkValue verifies that v is key idx's value with a version in
// [lo, hi]: lo is the oldest version a read may still return, hi the
// newest version any writer had issued when the read finished.
func checkValue(v []byte, idx, lo, hi uint32) error {
	if len(v) != valueLen {
		return fmt.Errorf("%w: %d bytes", errTorn, len(v))
	}
	gotIdx := binary.LittleEndian.Uint64(v[0:])
	ver64 := binary.LittleEndian.Uint64(v[8:])
	if gotIdx != uint64(idx) {
		return errForeign
	}
	if ver64 > uint64(^uint32(0)) {
		return errTorn
	}
	ver := uint32(ver64)
	for i := 16; i < len(v); i++ {
		if v[i] != fillByte(idx, ver, i) {
			return errTorn
		}
	}
	switch {
	case ver < lo:
		return fmt.Errorf("%w: version %d, oldest admissible %d", errStale, ver, lo)
	case ver > hi:
		return fmt.Errorf("%w: version %d, newest issued %d", errFuture, ver, hi)
	}
	return nil
}

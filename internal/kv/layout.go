// Package kv is the storage substrate shared by eFactory and every baseline
// (the paper implements all five systems "on the same code base", §5.3): the
// on-NVM object layout with co-located metadata, the log-structured data
// pool, and the RDMA-readable hash tables.
//
// All structures live inside an nvm.Device so that persistence is explicit:
// a metadata update is durable only after the covering lines are flushed,
// and tests can crash the device at any point to check recoverability.
package kv

import (
	"encoding/binary"

	"efactory/internal/nvm"
)

// Object layout inside the data pool (paper Figure 4, with metadata
// co-located with the object — the choice §6.1 credits for eFactory's edge
// over Forca's extra indirection layer):
//
//	offset size field
//	0      8    PrePtr    pool offset of the previous version (NilPtr if none)
//	8      8    NextPtr   pool offset of the next (newer) version, for cleaning
//	16     8    Seq       global write sequence number
//	24     8    CreatedAt virtual ns when the server allocated the region
//	32     4    CRC       checksum of the value bytes
//	36     4    KLen      key length
//	40     4    VLen      value length
//	44     1    Flags     Valid | Durable | Trans | Txn | TxnRec bits
//	45     3    (pad)
//	48     4    Magic     layout guard, set at allocation
//	52     4    (reserved)
//	56     8    TxnID     transaction id (0 outside transactions)
//	64     ...  key bytes, padded to 8
//	...    ...  value bytes
//
// The header occupies exactly one cache line, so persisting a flag update
// flushes a single line, and the durability flag travels with the object in
// a single RDMA read (the key enabler of the hybrid read scheme, §4.3.3).
const (
	HeaderSize = 64

	offPrePtr    = 0
	offNextPtr   = 8
	offSeq       = 16
	offCreatedAt = 24
	offCRC       = 32
	offKLen      = 36
	offVLen      = 40
	offFlags     = 44
	offMagic     = 48
	offTxnID     = 56
)

// NilPtr marks the absence of a previous/next version.
const NilPtr = ^uint64(0)

// Magic guards against interpreting unallocated pool space as an object.
const Magic = 0x65464143 // "eFAC"

// Flag bits.
const (
	FlagValid   = 1 << 0 // version participates in its object's chain
	FlagDurable = 1 << 1 // verified + persisted (the durability flag)
	FlagTrans   = 1 << 2 // previous version migrated to the new pool
	FlagTxn     = 1 << 3 // staged by an uncommitted transaction (invisible)
	FlagTxnRec  = 1 << 4 // transaction commit record (not key data)
)

// Header is the decoded object metadata.
type Header struct {
	PrePtr    uint64
	NextPtr   uint64
	Seq       uint64
	CreatedAt uint64
	CRC       uint32
	KLen      int
	VLen      int
	Flags     uint8
	Magic     uint32
	TxnID     uint64
}

// Valid reports the valid bit.
func (h *Header) Valid() bool { return h.Flags&FlagValid != 0 }

// Durable reports the durability flag.
func (h *Header) Durable() bool { return h.Flags&FlagDurable != 0 }

// Trans reports the transfer flag.
func (h *Header) Trans() bool { return h.Flags&FlagTrans != 0 }

// Staged reports whether the object is a transaction-staged version that
// has not been committed (never visible to reads or recovery).
func (h *Header) Staged() bool { return h.Flags&FlagTxn != 0 && h.Flags&FlagValid == 0 }

// TxnRec reports whether the object is a transaction commit record.
func (h *Header) IsTxnRec() bool { return h.Flags&FlagTxnRec != 0 }

// EncodeHeader serializes h into a HeaderSize-byte buffer.
func EncodeHeader(h *Header) []byte {
	b := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint64(b[offPrePtr:], h.PrePtr)
	binary.LittleEndian.PutUint64(b[offNextPtr:], h.NextPtr)
	binary.LittleEndian.PutUint64(b[offSeq:], h.Seq)
	binary.LittleEndian.PutUint64(b[offCreatedAt:], h.CreatedAt)
	binary.LittleEndian.PutUint32(b[offCRC:], h.CRC)
	binary.LittleEndian.PutUint32(b[offKLen:], uint32(h.KLen))
	binary.LittleEndian.PutUint32(b[offVLen:], uint32(h.VLen))
	b[offFlags] = h.Flags
	binary.LittleEndian.PutUint32(b[offMagic:], h.Magic)
	binary.LittleEndian.PutUint64(b[offTxnID:], h.TxnID)
	return b
}

// DecodeHeader parses an object header from b (at least HeaderSize bytes).
func DecodeHeader(b []byte) Header {
	return Header{
		PrePtr:    binary.LittleEndian.Uint64(b[offPrePtr:]),
		NextPtr:   binary.LittleEndian.Uint64(b[offNextPtr:]),
		Seq:       binary.LittleEndian.Uint64(b[offSeq:]),
		CreatedAt: binary.LittleEndian.Uint64(b[offCreatedAt:]),
		CRC:       binary.LittleEndian.Uint32(b[offCRC:]),
		KLen:      int(binary.LittleEndian.Uint32(b[offKLen:])),
		VLen:      int(binary.LittleEndian.Uint32(b[offVLen:])),
		Flags:     b[offFlags],
		Magic:     binary.LittleEndian.Uint32(b[offMagic:]),
		TxnID:     binary.LittleEndian.Uint64(b[offTxnID:]),
	}
}

// pad8 rounds n up to a multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// ObjectSize returns the total pool footprint of an object with the given
// key and value lengths: header + padded key + value, rounded up to a cache
// line so every object starts line-aligned.
func ObjectSize(klen, vlen int) int {
	n := HeaderSize + pad8(klen) + vlen
	return (n + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
}

// KeyOffset returns the offset of the key bytes within an object.
func KeyOffset() int { return HeaderSize }

// ValueOffset returns the offset of the value bytes within an object whose
// key is klen bytes.
func ValueOffset(klen int) int { return HeaderSize + pad8(klen) }

// ObjStatus classifies an object image a client fetched one-sidedly.
type ObjStatus uint8

const (
	// ObjOK: a complete version of the expected key.
	ObjOK ObjStatus = iota
	// ObjUnsettled: bad magic, or (when a settled version is required)
	// the valid or durability flag is clear. The location may still be
	// right; only the server can resolve the key.
	ObjUnsettled
	// ObjMismatch: the image is shorter than a header, holds a different
	// key, or its lengths overrun it. Whatever named this location (a
	// hash entry, a hint, a grant) is wrong.
	ObjMismatch
)

// CheckObject decodes the object image obj read for key and returns its
// header and a value view aliasing obj. With settled set it also demands
// the valid and durability flags, as an optimistic read must; a server
// grant already names a durable version, so its reader passes false.
// Every length comes from peer or media input, so each is checked before
// it slices: a short or torn image yields a status, never a panic.
func CheckObject(obj, key []byte, settled bool) (Header, []byte, ObjStatus) {
	if len(obj) < HeaderSize {
		return Header{}, nil, ObjMismatch
	}
	h := DecodeHeader(obj)
	if h.Magic != Magic || settled && (!h.Valid() || !h.Durable()) {
		return h, nil, ObjUnsettled
	}
	ko := KeyOffset()
	if h.KLen != len(key) || ko+h.KLen > len(obj) || string(obj[ko:ko+h.KLen]) != string(key) {
		return h, nil, ObjMismatch
	}
	vo := ValueOffset(h.KLen)
	if vo+h.VLen > len(obj) {
		return h, nil, ObjMismatch
	}
	return h, obj[vo : vo+h.VLen], ObjOK
}

// WriteHeader stores (volatile) an encoded header at pool offset off. It
// writes word-by-word through Write8, the mirror of ReadHeader's
// buffer-free form: header writes sit on the PUT allocation path, and an
// encode buffer would escape through the Device interface and cost one
// heap allocation per PUT. Every word is 8-aligned because objects are
// line-aligned; the pad, reserved, and trailing words are written zero,
// exactly as the buffer encoding left them.
func WriteHeader(dev nvm.Device, base int, off uint64, h *Header) {
	a := base + int(off)
	dev.Write8(a+offPrePtr, h.PrePtr)
	dev.Write8(a+offNextPtr, h.NextPtr)
	dev.Write8(a+offSeq, h.Seq)
	dev.Write8(a+offCreatedAt, h.CreatedAt)
	dev.Write8(a+offCRC, uint64(h.CRC)|uint64(uint32(h.KLen))<<32)
	dev.Write8(a+offVLen, uint64(uint32(h.VLen))|uint64(h.Flags)<<32)
	dev.Write8(a+offMagic, uint64(h.Magic))
	dev.Write8(a+offTxnID, h.TxnID)
}

// ReadHeader loads a header from pool offset off through the coherent
// view. It reads word-by-word through Read8 rather than copying the line
// into a temporary buffer: header reads dominate the GET path and the
// background scan, and the buffer-free form keeps them off the heap (the
// slice would escape through the Device interface). Every field word is
// 8-aligned because objects are line-aligned.
func ReadHeader(dev nvm.Device, base int, off uint64) Header {
	a := base + int(off)
	wCRC := dev.Read8(a + offCRC)   // CRC | KLen<<32
	wVLen := dev.Read8(a + offVLen) // VLen | Flags<<32
	wMagic := dev.Read8(a + offMagic)
	return Header{
		PrePtr:    dev.Read8(a + offPrePtr),
		NextPtr:   dev.Read8(a + offNextPtr),
		Seq:       dev.Read8(a + offSeq),
		CreatedAt: dev.Read8(a + offCreatedAt),
		CRC:       uint32(wCRC),
		KLen:      int(uint32(wCRC >> 32)),
		VLen:      int(uint32(wVLen)),
		Flags:     uint8(wVLen >> 32),
		Magic:     uint32(wMagic),
		TxnID:     dev.Read8(a + offTxnID),
	}
}

// SetFlags atomically updates the flags byte of the header at off. The
// flags share an 8-byte word with padding only, so an 8-byte atomic store
// updates them without touching neighbouring fields.
func SetFlags(dev nvm.Device, base int, off uint64, flags uint8) {
	addr := base + int(off) + offFlags
	// offFlags is 44: not 8-aligned. Read-modify-write the containing
	// aligned word (bytes 40..47 hold VLen, Flags, pad — VLen is
	// immutable after allocation, so this is safe). Word-granular
	// Read8/Write8 keeps the flag flip buffer-free: it runs once per
	// object verified by the background thread.
	word := addr &^ 7
	shift := uint((addr - word) * 8) // little-endian: byte i = bits 8i..8i+7
	w := dev.Read8(word)
	dev.Write8(word, w&^(0xff<<shift)|uint64(flags)<<shift)
}

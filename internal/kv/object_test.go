package kv

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestCheckObjectShortImages feeds CheckObject images truncated at every
// length: none may panic, and only the whole image is accepted.
func TestCheckObjectShortImages(t *testing.T) {
	key, val := []byte("k"), []byte("value")
	h := Header{KLen: len(key), VLen: len(val), Flags: FlagValid | FlagDurable, Magic: Magic}
	obj := append(EncodeHeader(&h), make([]byte, ValueOffset(len(key))-HeaderSize)...)
	copy(obj[KeyOffset():], key)
	obj = append(obj, val...)
	for n := 0; n <= len(obj); n++ {
		_, v, st := CheckObject(obj[:n], key, true)
		if (st == ObjOK) != (n == len(obj)) {
			t.Fatalf("len %d: status %d", n, st)
		}
		if st == ObjOK && !bytes.Equal(v, val) {
			t.Fatalf("value %q, want %q", v, val)
		}
	}
	// A key length that runs past the image is a mismatch, not a panic.
	binary.LittleEndian.PutUint32(obj[offKLen:], 1<<20)
	if _, _, st := CheckObject(obj, make([]byte, 1<<20), true); st != ObjMismatch {
		t.Fatalf("overlong key length: status %d", st)
	}
}

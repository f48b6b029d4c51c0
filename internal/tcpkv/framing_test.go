// Burst framing on the one-sided channel: a burst's replies come back
// whole and in order, the server answers a buffered frame before it
// blocks on a partial one, a GetBatch round costs one client write, and
// object images with lengths too short for a header are rejected
// without a panic.
package tcpkv

import (
	"bufio"
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"efactory/internal/kv"
	"efactory/internal/nvm"
)

// TestBurstRepliesInOrder posts one burst mixing READs, a WRITE, a
// bad-rkey READ and a WRITE whose declared length disagrees with its
// payload, and checks every reply in order: the NAKs answer in place
// without desynchronizing the replies behind them.
func TestBurstRepliesInOrder(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pool := cl.poolRKeyBase
	b := getBurst()
	defer putBurst(b)
	b.write(pool, 0, []byte("hello"))
	b.read(pool, 0, 5)
	b.read(99, 0, 8) // no such region: NAK
	b.add(opWrite, pool, 64, 9, []byte("short"))
	b.read(pool, 64, 5) // the mismatched WRITE left these bytes alone
	b.read(cl.tableRKey, 0, kv.EntrySize)
	if err := cl.exchange(b); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		ok   bool
		data []byte
	}{
		{true, nil},
		{true, []byte("hello")},
		{false, nil},
		{false, nil},
		{true, make([]byte, 5)},
		{true, make([]byte, kv.EntrySize)},
	}
	for i, w := range want {
		data, ok := b.resp(i)
		if ok != w.ok || !bytes.Equal(data, w.data) && w.data != nil || w.data == nil && len(data) != 0 {
			t.Errorf("reply %d = (%q, %v), want (%q, %v)", i, data, ok, w.data, w.ok)
		}
	}
	// The channel is still in step after the NAKs.
	got, err := cl.read(b, pool, 0, 5)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read after burst = %q, %v", got, err)
	}
}

// osFrame encodes one one-sided request frame.
func osFrame(op byte, rkey uint32, off uint64, length int) []byte {
	b := &osBurst{}
	b.add(op, rkey, off, length, nil)
	return b.req
}

// TestSplitFrameAnsweredBeforeBlock writes a whole READ frame plus the
// first half of a second one, pauses, then sends the rest. The server
// must answer the whole frame before it blocks waiting for the split
// one (flush before block), and must answer the split one once it
// completes.
func TestSplitFrameAnsweredBeforeBlock(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	conn, err := dialChannel(addr, chanOneSided)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	first := osFrame(opRead, rkeyPoolBase, 0, 8)
	second := osFrame(opRead, rkeyPoolBase, 64, 16)
	if _, err := conn.Write(append(append([]byte{}, first...), second[:10]...)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r, err := readFrameInto(br, nil)
	if err != nil {
		t.Fatalf("first reply while the second frame is incomplete: %v", err)
	}
	if len(r) != 1+8 || r[0] != 1 {
		t.Fatalf("first reply = %v, want ACK + 8 bytes", r)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := conn.Write(second[10:]); err != nil {
		t.Fatal(err)
	}
	r, err = readFrameInto(br, nil)
	if err != nil {
		t.Fatalf("reply to the split frame: %v", err)
	}
	if len(r) != 1+16 || r[0] != 1 {
		t.Fatalf("split-frame reply = %v, want ACK + 16 bytes", r)
	}
}

// writeCounter counts the Write calls made on a connection.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// TestGetBatchOneWritePerRound resolves a GetBatch(64) over settled keys
// and counts the client's writes on the one-sided connection: exactly one
// per doorbell round (each round is one traced doorbell_read section).
func TestGetBatchOneWritePerRound(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keys, vals := benchKVs(64, 100)
	for i, err := range cl.PutBatch(keys, vals) {
		if err != nil {
			t.Fatalf("put %s: %v", keys[i], err)
		}
	}
	// Wait for background verification: a settled batch resolves every
	// key one-sidedly, with no RPC fallback.
	for deadline := time.Now().Add(raceScale(2 * time.Second)); ; {
		before := cl.FallbackReads
		cl.GetBatch(keys)
		if cl.FallbackReads == before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("keys never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	wc := &writeCounter{Conn: cl.os.conn}
	cl.mu.Lock()
	cl.os = osLink{conn: wc, r: bufio.NewReaderSize(wc, burstBufSize)}
	cl.mu.Unlock()
	cl.EnableTracing(1, 0)
	got, errs := cl.GetBatch(keys)
	for i := range keys {
		if errs[i] != nil || !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("key %s = %q, %v", keys[i], got[i], errs[i])
		}
	}
	rounds := 0
	for _, tr := range cl.Tracer().Dump(0) {
		for _, sp := range tr.Spans {
			if sp.Name == "doorbell_read" {
				rounds++
			}
		}
	}
	if rounds < 2 {
		t.Fatalf("%d doorbell rounds traced; an entry and an object round are the minimum", rounds)
	}
	if w := wc.writes.Load(); w != int64(rounds) {
		t.Fatalf("%d client writes for %d doorbell rounds", w, rounds)
	}
}

// TestShortObjectLengthNeverPanics corrupts a settled key's hash entry so
// it names a 16-byte object — shorter than an object header. The
// optimistic read must fall back, and the server's grant (which carries
// the same length) must surface as an error, on both Get and GetBatch.
func TestShortObjectLengthNeverPanics(t *testing.T) {
	cfg := smallConfig()
	dev := nvm.New(cfg.DeviceSize())
	srv, addr := startServer(t, dev, cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	key := []byte("short-key")
	if err := cl.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(raceScale(2 * time.Second)); cl.PureReads == 0; {
		if _, err := cl.Get(key); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("key never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rewrite the current location word of the key's entry.
	base := srv.layout.TableBase(0)
	hash := kv.HashKey(key)
	raw := make([]byte, kv.EntrySize)
	found := false
	for i := 0; i < cfg.Buckets && !found; i++ {
		dev.Read(base+i*kv.EntrySize, raw)
		e := kv.DecodeEntry(raw)
		if e.KeyHash != hash {
			continue
		}
		off, _, _ := kv.UnpackLoc(e.Current())
		word := base + i*kv.EntrySize + 8 + 8*e.Mark()
		dev.Write8(word, kv.PackLoc(off, 16))
		found = true
	}
	if !found {
		t.Fatal("key's entry not found in the table")
	}

	fallbacks := cl.FallbackReads
	if v, err := cl.Get(key); err == nil {
		t.Fatalf("Get over a 16-byte object = %q, want an error", v)
	}
	if cl.FallbackReads != fallbacks+1 {
		t.Fatalf("optimistic read did not fall back (%d -> %d)", fallbacks, cl.FallbackReads)
	}
	vals, errs := cl.GetBatch([][]byte{key})
	if errs[0] == nil {
		t.Fatalf("GetBatch over a 16-byte object = %q, want an error", vals[0])
	}
}

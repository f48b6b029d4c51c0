package tcpkv

import (
	"fmt"

	"efactory/internal/cluster"
	"efactory/internal/hint"
	"efactory/internal/kv"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// EnableHintCache attaches a client-side location/durability hint cache
// with the given per-shard capacity (hint.DefaultCap if non-positive). A
// hit lets the optimistic read fetch the hash entry and the object in one
// one-sided burst instead of walking the probe chain; the entry READ
// always rides along and is authoritative, so stale hints are detected and
// invalidated, never served. Configure before issuing concurrent ops, like
// SetHybridRead.
func (c *Client) EnableHintCache(capPerShard int) {
	c.hints = hint.New(c.shards, capPerShard)
}

// HintCache returns the attached hint cache (nil when disabled).
func (c *Client) HintCache() *hint.Cache { return c.hints }

// noteLocation records a location learned from an RPC response (PUT
// allocation, GET grant), keeping a previously learned slot — overwrites
// reuse the key's table entry.
func (c *Client) noteLocation(key []byte, pool uint32, off uint64, tlen, klen int, seq uint64, durable bool) {
	if c.hints == nil {
		return
	}
	shard := cluster.ShardFor(key, c.shards)
	slot := -1
	if prev, ok := c.hints.Peek(shard, key); ok {
		slot = prev.Slot
	}
	c.hints.Insert(shard, key, hint.Entry{
		Slot: slot, Pool: pool, Off: off, Len: tlen, KLen: klen, Seq: seq, Durable: durable,
	})
}

// dropHint invalidates key's hint (client-initiated delete).
func (c *Client) dropHint(key []byte) {
	if c.hints == nil {
		return
	}
	c.hints.Invalidate(cluster.ShardFor(key, c.shards), key)
}

// hintedRead outcomes (mirrors the simulation client).
const (
	hrMiss     = iota // no usable hint (or it proved stale): run the probe walk
	hrHit             // value returned from the hinted burst
	hrFallback        // key resolved to "ask the server"
)

// hintedRead attempts the hint-accelerated optimistic read: one one-sided
// burst carrying the hash-entry READ at the hinted slot and a speculative
// object READ at the hinted location. The entry is authoritative — the
// speculative bytes are accepted only if the entry still names that exact
// location; otherwise the object is re-fetched from where the entry points
// before the usual durability/key checks.
func (c *Client) hintedRead(tc *trace.Ctx, b *osBurst, key []byte) ([]byte, int, error) {
	keyHash := kv.HashKey(key)
	shard := cluster.ShardOf(keyHash, c.shards)
	h, ok := c.hints.Lookup(shard, key)
	if !ok {
		return nil, hrMiss, nil
	}
	if !h.Durable {
		// Last seen undurable: the optimistic read would fail its
		// durability check anyway, so go straight to the server.
		return nil, hrFallback, nil
	}
	tableRKey, poolBase := c.shardRKeysFor(keyHash)
	slot := h.Slot
	if slot < 0 {
		slot = int(keyHash % uint64(c.buckets)) // probe-0 guess
	}
	tRead := traceNow(tc)
	b.reset()
	b.read(tableRKey, uint64(slot*kv.EntrySize), kv.EntrySize)
	b.read(h.Pool, h.Off, h.Len)
	err := c.exchange(b)
	tc.Add("doorbell_read", tRead, traceNow(tc))
	if err != nil {
		return nil, 0, err
	}
	e, eok := b.entry(0)
	obj, ook := b.resp(1)
	if !eok || !ook {
		// NAKed: the hinted region no longer resolves (relayout, bad hint).
		c.hints.Invalidate(shard, key)
		return nil, hrMiss, nil
	}
	if e.KeyHash != keyHash || e.Free() {
		// Wrong slot (cleaning or churn moved the entry): probe normally.
		c.hints.Invalidate(shard, key)
		return nil, hrMiss, nil
	}
	if e.Tombstone() || e.Current() == 0 {
		c.hints.Invalidate(shard, key)
		return nil, hrFallback, nil
	}
	off, tlen, _ := kv.UnpackLoc(e.Current())
	pool := poolBase + uint32(e.Mark()&1)
	if off != h.Off || tlen != h.Len || pool != h.Pool {
		// The key moved; the speculative bytes are a stale version. The
		// entry names the current location — fetch that instead.
		c.hints.Invalidate(shard, key)
		tObj := traceNow(tc)
		obj, err = c.read(b, pool, off, tlen)
		tc.Add("object_read", tObj, traceNow(tc))
		if err != nil {
			return nil, 0, err
		}
	}
	hd, v, st := kv.CheckObject(obj, key, true)
	switch st {
	case kv.ObjUnsettled:
		return nil, hrFallback, nil
	case kv.ObjMismatch:
		c.hints.Invalidate(shard, key)
		return nil, hrFallback, nil
	}
	c.hints.Insert(shard, key, hint.Entry{
		Slot: slot, Pool: pool, Off: off, Len: tlen, KLen: hd.KLen, Seq: hd.Seq, Durable: true,
	})
	c.bump(&c.HintedReads)
	return append([]byte(nil), v...), hrHit, nil
}

// tgbPhase is the per-key step a GetBatch round just issued.
type tgbPhase int

const (
	tgbIdle   tgbPhase = iota
	tgbHinted          // entry + speculative object pair in flight
	tgbEntry           // probe entry READ in flight
	tgbObject          // object READ (location known from the entry) in flight
)

// tgbState tracks one key of a GetBatch through the optimistic rounds.
type tgbState struct {
	keyHash uint64
	shard   int
	table   uint32 // owning shard's table rkey
	poolB   uint32 // owning shard's pool rkey base
	probe   int
	slot    int // slot where the entry matched; -1 until known
	phase   tgbPhase
	hinted  hint.Entry
	useHint bool
	wantObj bool // entry resolved a location; object READ pending
	pool    uint32
	off     uint64
	tlen    int

	done     bool
	fallback bool
}

// GetBatch resolves len(keys) GETs as one operation: each round, the
// one-sided READs of every in-flight key go out in ONE burst on the
// one-sided channel (frames posted back-to-back before the first response
// is awaited — the TCP analogue of a doorbell-batched READ chain), and
// keys whose optimistic read fails verification fall back together in one
// TGetBatch RPC on the pipelined channel followed by one more burst
// fetching the granted objects. Hint-cache hits skip the probe walk.
//
// Results are index-aligned with keys: values[i] is valid iff errs[i] is
// nil (ErrNotFound, or a transport/status error shared by every key the
// failure reached). The whole batch retries together under the client's
// RetryPolicy.
func (c *Client) GetBatch(keys [][]byte) ([][]byte, []error) {
	if len(keys) == 0 {
		return make([][]byte, 0), make([]error, 0)
	}
	tc, t0 := c.beginTrace("get_batch", kv.HashKey(keys[0]))
	vals, errs := c.getBatchCtx(tc, keys)
	ferr := error(nil)
	for i := 0; ferr == nil && i < len(errs); i++ {
		if errs[i] != nil && errs[i] != ErrNotFound {
			ferr = errs[i]
		}
	}
	c.endTrace(tc, t0, ferr)
	return vals, errs
}

// getBatchCtx is GetBatch's body under a caller-owned trace context.
func (c *Client) getBatchCtx(tc *trace.Ctx, keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	done := make([]bool, len(keys))
	err := c.retrying(func() error {
		for i := range keys {
			vals[i], errs[i], done[i] = nil, nil, false
		}
		return c.getBatchOnce(tc, keys, vals, errs, done)
	})
	if err != nil {
		for i := range keys {
			if !done[i] && errs[i] == nil {
				errs[i] = err
			}
		}
	}
	return vals, errs
}

// getBatchOnce runs one attempt of a GetBatch. Transport failures return
// an error (the retry layer redials and replays the whole batch);
// per-key protocol outcomes land in vals/errs/done.
func (c *Client) getBatchOnce(tc *trace.Ctx, keys [][]byte, vals [][]byte, errs []error, done []bool) error {
	c.mu.Lock()
	c.BatchedGets += len(keys)
	c.mu.Unlock()
	sts := make([]tgbState, len(keys))
	hybrid := c.hybrid
	for i, k := range keys {
		st := &sts[i]
		st.keyHash = kv.HashKey(k)
		st.shard = cluster.ShardOf(st.keyHash, c.shards)
		st.table, st.poolB = c.shardRKeysFor(st.keyHash)
		st.slot = -1
		if !hybrid {
			st.fallback = true
			c.bump(&c.RPCReads)
			continue
		}
		if c.hints != nil {
			if h, ok := c.hints.Lookup(st.shard, k); ok {
				if !h.Durable {
					st.fallback = true
					c.bump(&c.FallbackReads)
					continue
				}
				st.hinted, st.useHint = h, true
			}
		}
	}
	fallback := func(i int) {
		sts[i].fallback = true
		c.bump(&c.FallbackReads)
	}
	invalidate := func(i int) {
		if c.hints != nil {
			c.hints.Invalidate(sts[i].shard, keys[i])
		}
	}
	// validateObj applies the optimistic object checks to obj (a view of
	// this round's burst) and either finishes the key or sends it to the
	// RPC fallback.
	validateObj := func(i int, obj []byte) {
		st := &sts[i]
		hd, v, status := kv.CheckObject(obj, keys[i], true)
		switch status {
		case kv.ObjUnsettled:
			fallback(i) // not completely durable: location may still be right
			return
		case kv.ObjMismatch:
			invalidate(i)
			fallback(i)
			return
		}
		vals[i] = append([]byte(nil), v...)
		done[i] = true
		st.done = true
		c.bump(&c.PureReads)
		if st.phase == tgbHinted {
			c.bump(&c.HintedReads)
		}
		if c.hints != nil {
			c.hints.Insert(st.shard, keys[i], hint.Entry{
				Slot: st.slot, Pool: st.pool, Off: st.off, Len: st.tlen,
				KLen: hd.KLen, Seq: hd.Seq, Durable: true,
			})
		}
	}

	// One burst carries every round: its arena holds the round's
	// responses until the next round resets it, and every view taken from
	// it is consumed (copied or decoded) within the round.
	b := getBurst()
	defer putBurst(b)
	type issued struct {
		i     int
		first int // index of the key's first response in the burst
	}
	var acted []issued
	for hybrid {
		b.reset()
		acted = acted[:0]
		for i := range sts {
			st := &sts[i]
			if st.done || st.fallback {
				continue
			}
			acted = append(acted, issued{i, b.n})
			switch {
			case st.wantObj:
				st.wantObj = false
				st.phase = tgbObject
				b.read(st.pool, st.off, st.tlen)
			case st.useHint && st.phase == tgbIdle:
				st.phase = tgbHinted
				slot := st.hinted.Slot
				if slot < 0 {
					slot = int(st.keyHash % uint64(c.buckets))
				}
				st.slot = slot
				st.pool, st.off, st.tlen = st.hinted.Pool, st.hinted.Off, st.hinted.Len
				b.read(st.table, uint64(slot*kv.EntrySize), kv.EntrySize)
				b.read(st.pool, st.off, st.tlen)
			default:
				st.phase = tgbEntry
				st.slot = (int(st.keyHash%uint64(c.buckets)) + st.probe) % c.buckets
				b.read(st.table, uint64(st.slot*kv.EntrySize), kv.EntrySize)
			}
		}
		if b.n == 0 {
			break
		}
		tRead := traceNow(tc)
		err := c.exchange(b)
		tc.Add("doorbell_read", tRead, traceNow(tc))
		if err != nil {
			return err
		}
		for _, a := range acted {
			st := &sts[a.i]
			switch st.phase {
			case tgbHinted:
				e, eok := b.entry(a.first)
				obj, ook := b.resp(a.first + 1)
				if !eok || !ook || e.KeyHash != st.keyHash || e.Free() {
					// NAKed region or wrong slot: the hint is stale, run
					// the probe walk.
					invalidate(a.i)
					st.phase, st.slot, st.probe, st.useHint = tgbIdle, -1, 0, false
					continue
				}
				if e.Tombstone() || e.Current() == 0 {
					invalidate(a.i)
					fallback(a.i)
					continue
				}
				off, tlen, _ := kv.UnpackLoc(e.Current())
				pool := st.poolB + uint32(e.Mark()&1)
				if off == st.off && tlen == st.tlen && pool == st.pool {
					validateObj(a.i, obj) // speculative bytes are the live version
					continue
				}
				// Key moved: re-fetch from the entry's location next round.
				invalidate(a.i)
				st.pool, st.off, st.tlen = pool, off, tlen
				st.wantObj = true
			case tgbEntry:
				e, ok := b.entry(a.first)
				switch {
				case !ok:
					// A NAK means the addressed region no longer resolves:
					// give up the optimistic path for this key.
					fallback(a.i)
				case e.KeyHash == 0:
					if c.epoch.Load() != 0 {
						// Clustered: absence must be confirmed by the owner
						// (the key may have migrated away and been purged).
						fallback(a.i)
						continue
					}
					errs[a.i] = ErrNotFound
					st.done = true
				case e.Free():
					st.probe++
					if st.probe >= 4 {
						st.slot = -1
						fallback(a.i)
					}
				case e.KeyHash == st.keyHash:
					if e.Tombstone() || e.Current() == 0 {
						fallback(a.i)
						continue
					}
					off, tlen, _ := kv.UnpackLoc(e.Current())
					st.pool = st.poolB + uint32(e.Mark()&1)
					st.off, st.tlen = off, tlen
					st.wantObj = true
				default:
					st.probe++
					if st.probe >= 4 {
						st.slot = -1
						fallback(a.i)
					}
				}
			case tgbObject:
				obj, ok := b.resp(a.first)
				if !ok {
					fallback(a.i)
					continue
				}
				validateObj(a.i, obj)
			}
		}
	}

	// RPC fallback: every unresolved key rides ONE TGetBatch on the
	// pipelined channel, then one burst fetches the granted objects.
	var fbIdx []int
	for i := range sts {
		if !sts[i].done && errs[i] == nil {
			fbIdx = append(fbIdx, i)
		}
	}
	if len(fbIdx) == 0 {
		return nil
	}
	ops := make([]wire.GetOp, len(fbIdx))
	for j, i := range fbIdx {
		slot := wire.NoSlot
		if sts[i].slot >= 0 {
			slot = uint32(sts[i].slot)
		}
		ops[j] = wire.GetOp{Slot: slot, Key: keys[i]}
	}
	tRPC := traceNow(tc)
	resp, err := c.rpc(wire.Msg{Type: wire.TGetBatch, Trace: tc.ID(), Token: uint32(c.epoch.Load()), Value: wire.EncodeGetOps(ops)})
	tc.Add("get_rpc", tRPC, traceNow(tc))
	if err != nil {
		return err
	}
	if resp.Status == wire.StWrongEpoch {
		return wrongEpoch(resp)
	}
	if resp.Status != wire.StOK {
		return fmt.Errorf("tcpkv: get batch status %d", resp.Status)
	}
	grants, err := wire.DecodeGetGrants(resp.Value)
	if err != nil {
		return fmt.Errorf("tcpkv: malformed get batch response: %w", err)
	}
	if len(grants) != len(fbIdx) {
		return fmt.Errorf("tcpkv: get batch returned %d grants for %d ops", len(grants), len(fbIdx))
	}
	b.reset()
	var rIdx []int
	for j, g := range grants {
		i := fbIdx[j]
		switch g.Status {
		case wire.StOK:
			b.read(g.RKey, g.Off, int(g.Len))
			rIdx = append(rIdx, j)
		case wire.StNotFound:
			errs[i] = ErrNotFound
		default:
			errs[i] = fmt.Errorf("tcpkv: get status %d", g.Status)
		}
	}
	if b.n == 0 {
		return nil
	}
	tRead := traceNow(tc)
	err = c.exchange(b)
	tc.Add("doorbell_read", tRead, traceNow(tc))
	if err != nil {
		return err
	}
	for n, j := range rIdx {
		i, g := fbIdx[j], grants[j]
		obj, ok := b.resp(n)
		if !ok {
			errs[i] = fmt.Errorf("tcpkv: one-sided read NAK for granted object at %d", g.Off)
			continue
		}
		_, v, st := kv.CheckObject(obj, keys[i], false)
		if st != kv.ObjOK {
			errs[i] = fmt.Errorf("tcpkv: corrupt object from server at %d", g.Off)
			continue
		}
		vals[i] = append([]byte(nil), v...)
		done[i] = true
		if c.hints != nil {
			c.hints.Insert(sts[i].shard, keys[i], hint.Entry{
				Slot: int(g.Slot), Pool: g.RKey, Off: g.Off, Len: int(g.Len),
				KLen: int(g.KLen), Seq: g.Seq, Durable: g.Durable(),
			})
		}
	}
	return nil
}

package efactory

import (
	"fmt"

	"efactory/internal/cluster"
	"efactory/internal/hint"
	"efactory/internal/kv"
	"efactory/internal/rnic"
	"efactory/internal/sim"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// EnableHintCache attaches a client-side location/durability hint cache
// with the given per-shard capacity (hint.DefaultCap if non-positive).
// Hints let the optimistic read path skip the slot-probe READs: a hit
// fetches the hash entry and the object in one doorbell chain and accepts
// the object only if the entry still points at the hinted location. The
// cache is off by default, so default-configuration timings are unchanged.
func (c *Client) EnableHintCache(capPerShard int) {
	c.hints = hint.New(len(c.shards), capPerShard)
}

// HintCache returns the attached hint cache (nil when disabled).
func (c *Client) HintCache() *hint.Cache { return c.hints }

// noteLocation records a location learned from an RPC response (PUT
// allocation, GET grant). The key's table slot survives overwrites, so a
// previously learned slot is kept; Durable records whether the version at
// this location was known durable when the response was issued.
func (c *Client) noteLocation(key []byte, pool uint32, off uint64, tlen, klen int, seq uint64, durable bool) {
	if c.hints == nil {
		return
	}
	shard := cluster.ShardFor(key, len(c.shards))
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
	c.hints.Invalidate(cluster.ShardFor(key, len(c.shards)), key)
}

// hintedRead outcomes.
const (
	hrMiss     = iota // no usable hint (or it proved stale): run the probe walk
	hrHit             // value returned from the hinted chain
	hrFallback        // key resolved to "ask the server" (undurable/tombstone)
)

// hintedRead attempts the hint-accelerated optimistic read: one doorbell
// chain carrying the hash-entry READ at the hinted slot and a speculative
// object READ at the hinted location. The entry is authoritative — the
// speculative bytes are accepted only if the entry still names that exact
// location; if the entry points elsewhere the object is re-fetched from
// the entry's location before the usual durability/key checks.
func (c *Client) hintedRead(p *sim.Proc, tc *trace.Ctx, key []byte) ([]byte, int, error) {
	keyHash := kv.HashKey(key)
	shard := cluster.ShardOf(keyHash, len(c.shards))
	h, ok := c.hints.Lookup(shard, key)
	if !ok {
		return nil, hrMiss, nil
	}
	if !h.Durable {
		// Last seen undurable: the optimistic chain would fail its
		// durability check anyway, so go straight to the server.
		return nil, hrFallback, nil
	}
	g := c.shards[shard]
	slot := h.Slot
	if slot < 0 {
		slot = int(keyHash % uint64(c.buckets)) // probe-0 guess
	}
	ebuf := make([]byte, kv.EntrySize)
	obj := make([]byte, h.Len)
	tRead := c.nowNS()
	err := c.ep.ReadBatch(p, []rnic.ReadReq{
		{Dst: ebuf, RKey: g.tableRKey, Off: slot * kv.EntrySize},
		{Dst: obj, RKey: h.Pool, Off: int(h.Off)},
	})
	tc.Add("doorbell_read", tRead, c.nowNS())
	if err != nil {
		return nil, 0, err
	}
	e := kv.DecodeEntry(ebuf)
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
	pool := g.poolRKey[e.Mark()&1]
	if off != h.Off || tlen != h.Len || pool != h.Pool {
		// The key moved; the speculative bytes are a stale version. The
		// entry names the current location — fetch that instead.
		c.hints.Invalidate(shard, key)
		obj = make([]byte, tlen)
		tRefetch := c.nowNS()
		if err := c.ep.Read(p, obj, pool, int(off)); err != nil {
			return nil, 0, err
		}
		tc.Add("object_read", tRefetch, c.nowNS())
	}
	hd, val, st := kv.CheckObject(obj, key, true)
	switch st {
	case kv.ObjUnsettled:
		return nil, hrFallback, nil // not completely durable: server resolves
	case kv.ObjMismatch:
		c.hints.Invalidate(shard, key)
		return nil, hrFallback, nil
	}
	c.hints.Insert(shard, key, hint.Entry{
		Slot: slot, Pool: pool, Off: off, Len: tlen, KLen: hd.KLen, Seq: hd.Seq, Durable: true,
	})
	c.Stats.HintedReads++
	return append([]byte(nil), val...), hrHit, nil
}

// gbPhase is the per-key step a GetBatch round just issued.
type gbPhase int

const (
	gbIdle   gbPhase = iota
	gbHinted         // entry + speculative object pair in flight
	gbEntry          // probe entry READ in flight
	gbObject         // object READ (location known from the entry) in flight
)

// gbState tracks one key of a GetBatch through the optimistic rounds.
type gbState struct {
	keyHash uint64
	shard   int
	probe   int
	slot    int // slot where the entry matched; -1 until known
	phase   gbPhase
	hinted  hint.Entry
	wantObj bool // entry resolved a location; object READ pending
	entry   []byte
	obj     []byte
	pool    uint32
	off     uint64
	tlen    int

	done     bool
	fallback bool
}

// GetBatch resolves len(keys) GETs as one operation. Under the hybrid
// scheme every key runs the optimistic one-sided protocol, but the READs
// of all in-flight keys are chained per round into a single doorbell-
// batched group sharing one completion charge (rnic.ReadBatch). Hint-cache
// hits skip the probe walk entirely. Keys whose optimistic read fails
// verification — undurable, tombstoned, probe-exhausted, hash-collided —
// fall back together in ONE TGetBatch RPC (carrying any learned slots as
// server-side hints) followed by one more doorbell chain fetching the
// granted objects.
//
// Results are index-aligned with keys: values[i] is nil iff errs[i] is
// non-nil (ErrNotFound, or a transport/status error).
func (c *Client) GetBatch(p *sim.Proc, keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return vals, errs
	}
	c.drainNotifications()
	c.Stats.Gets += len(keys)
	c.Stats.BatchedGets += len(keys)
	tc, tr0 := c.beginTrace("get_batch", kv.HashKey(keys[0]))
	vals, errs = c.getBatchTraced(p, tc, keys, vals, errs)
	var first error
	for _, e := range errs {
		if e != nil && e != ErrNotFound {
			first = e
			break
		}
	}
	c.endTrace(tc, tr0, first)
	return vals, errs
}

// getBatchTraced is GetBatch's body, with the request's trace context
// (nil when unsampled) threaded through each doorbell round and the RPC
// fallback.
func (c *Client) getBatchTraced(p *sim.Proc, tc *trace.Ctx, keys [][]byte, vals [][]byte, errs []error) ([][]byte, []error) {

	optimistic := c.hybrid && !c.cleaning
	sts := make([]gbState, len(keys))
	for i, k := range keys {
		st := &sts[i]
		st.keyHash = kv.HashKey(k)
		st.shard = cluster.ShardOf(st.keyHash, len(c.shards))
		st.slot = -1
		if !optimistic {
			st.fallback = true
			c.Stats.RPCReads++
			continue
		}
		if c.hints != nil {
			if h, ok := c.hints.Lookup(st.shard, k); ok {
				if !h.Durable {
					st.fallback = true
					c.Stats.FallbackReads++
					continue
				}
				st.hinted, st.phase = h, gbHinted
			}
		}
	}
	fallback := func(i int) {
		sts[i].fallback = true
		c.Stats.FallbackReads++
	}
	invalidate := func(i int) {
		if c.hints != nil {
			c.hints.Invalidate(sts[i].shard, keys[i])
		}
	}
	finish := func(i int, hd kv.Header, val []byte) {
		st := &sts[i]
		vals[i] = append([]byte(nil), val...)
		st.done = true
		c.Stats.PureReads++
		if st.phase == gbHinted {
			c.Stats.HintedReads++
		}
		if c.hints != nil {
			c.hints.Insert(st.shard, keys[i], hint.Entry{
				Slot: st.slot, Pool: st.pool, Off: st.off, Len: st.tlen,
				KLen: hd.KLen, Seq: hd.Seq, Durable: true,
			})
		}
	}
	// validateObj applies the optimistic object checks to st.obj; it either
	// finishes the key or sends it to the RPC fallback.
	validateObj := func(i int) {
		st := &sts[i]
		hd, val, status := kv.CheckObject(st.obj, keys[i], true)
		switch status {
		case kv.ObjUnsettled:
			fallback(i) // not completely durable: location may still be right
		case kv.ObjMismatch:
			invalidate(i)
			fallback(i)
		default:
			finish(i, hd, val)
		}
	}

	var acted []int
	for optimistic {
		var reqs []rnic.ReadReq
		acted = acted[:0]
		for i := range sts {
			st := &sts[i]
			if st.done || st.fallback {
				continue
			}
			g := c.shards[st.shard]
			switch {
			case st.wantObj:
				st.wantObj = false
				st.phase = gbObject
				st.obj = make([]byte, st.tlen)
				reqs = append(reqs, rnic.ReadReq{Dst: st.obj, RKey: st.pool, Off: int(st.off)})
			case st.phase == gbHinted && st.entry == nil:
				slot := st.hinted.Slot
				if slot < 0 {
					slot = int(st.keyHash % uint64(c.buckets))
				}
				st.slot = slot
				st.pool, st.off, st.tlen = st.hinted.Pool, st.hinted.Off, st.hinted.Len
				st.entry = make([]byte, kv.EntrySize)
				st.obj = make([]byte, st.tlen)
				reqs = append(reqs,
					rnic.ReadReq{Dst: st.entry, RKey: g.tableRKey, Off: slot * kv.EntrySize},
					rnic.ReadReq{Dst: st.obj, RKey: st.pool, Off: int(st.off)})
			default:
				st.phase = gbEntry
				st.slot = (int(st.keyHash%uint64(c.buckets)) + st.probe) % c.buckets
				st.entry = make([]byte, kv.EntrySize)
				reqs = append(reqs, rnic.ReadReq{Dst: st.entry, RKey: g.tableRKey, Off: st.slot * kv.EntrySize})
			}
			acted = append(acted, i)
		}
		if len(reqs) == 0 {
			break
		}
		tRead := c.nowNS()
		if err := c.ep.ReadBatch(p, reqs); err != nil {
			for i := range sts {
				if !sts[i].done && errs[i] == nil {
					errs[i] = err
					sts[i].done = true
				}
			}
			return vals, errs
		}
		tc.Add("doorbell_read", tRead, c.nowNS())
		for _, i := range acted {
			st := &sts[i]
			switch st.phase {
			case gbHinted:
				e := kv.DecodeEntry(st.entry)
				if e.KeyHash != st.keyHash || e.Free() {
					// Wrong slot: hint is stale, run the probe walk.
					invalidate(i)
					st.phase, st.entry, st.obj = gbIdle, nil, nil
					st.slot, st.probe = -1, 0
					continue
				}
				if e.Tombstone() || e.Current() == 0 {
					invalidate(i)
					fallback(i)
					continue
				}
				off, tlen, _ := kv.UnpackLoc(e.Current())
				pool := c.shards[st.shard].poolRKey[e.Mark()&1]
				if off == st.off && tlen == st.tlen && pool == st.pool {
					validateObj(i) // speculative bytes are the live version
					continue
				}
				// Key moved: re-fetch from the entry's location next round.
				invalidate(i)
				st.pool, st.off, st.tlen = pool, off, tlen
				st.wantObj = true
			case gbEntry:
				e := kv.DecodeEntry(st.entry)
				switch {
				case e.KeyHash == 0:
					errs[i] = ErrNotFound
					st.done = true
				case e.Free():
					st.probe++
					if st.probe >= maxEntryProbes {
						st.slot = -1
						fallback(i)
					}
				case e.KeyHash == st.keyHash:
					if e.Tombstone() || e.Current() == 0 {
						fallback(i)
						continue
					}
					off, tlen, _ := kv.UnpackLoc(e.Current())
					st.pool = c.shards[st.shard].poolRKey[e.Mark()&1]
					st.off, st.tlen = off, tlen
					st.wantObj = true
				default:
					st.probe++
					if st.probe >= maxEntryProbes {
						st.slot = -1
						fallback(i)
					}
				}
			case gbObject:
				validateObj(i)
			}
		}
	}
	return c.getBatchRPC(p, tc, keys, sts, vals, errs)
}

// getBatchRPC resolves every not-yet-done key of a GetBatch with one
// TGetBatch request and one doorbell chain of object READs for the grants.
func (c *Client) getBatchRPC(p *sim.Proc, tc *trace.Ctx, keys [][]byte, sts []gbState, vals [][]byte, errs []error) ([][]byte, []error) {
	var fbIdx []int
	for i := range sts {
		if !sts[i].done {
			fbIdx = append(fbIdx, i)
		}
	}
	if len(fbIdx) == 0 {
		return vals, errs
	}
	ops := make([]wire.GetOp, len(fbIdx))
	for j, i := range fbIdx {
		slot := wire.NoSlot
		if sts[i].slot >= 0 {
			slot = uint32(sts[i].slot)
		}
		ops[j] = wire.GetOp{Slot: slot, Key: keys[i]}
	}
	fail := func(err error) ([][]byte, []error) {
		for _, i := range fbIdx {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return vals, errs
	}
	tRPC := c.nowNS()
	resp, err := c.rpc(p, wire.Msg{Type: wire.TGetBatch, Value: wire.EncodeGetOps(ops), Trace: tc.ID()})
	tc.Add("get_rpc", tRPC, c.nowNS())
	if err != nil {
		return fail(err)
	}
	if resp.Status != wire.StOK {
		return fail(fmt.Errorf("efactory: get batch failed with status %d", resp.Status))
	}
	grants, err := wire.DecodeGetGrants(resp.Value)
	if err != nil || len(grants) != len(fbIdx) {
		return fail(fmt.Errorf("efactory: malformed get batch response: %v", err))
	}
	var reqs []rnic.ReadReq
	var rIdx []int
	for j, g := range grants {
		i := fbIdx[j]
		switch g.Status {
		case wire.StOK:
			sts[i].obj = make([]byte, g.Len)
			sts[i].pool, sts[i].off, sts[i].tlen = g.RKey, g.Off, int(g.Len)
			sts[i].slot = int(g.Slot)
			reqs = append(reqs, rnic.ReadReq{Dst: sts[i].obj, RKey: g.RKey, Off: int(g.Off)})
			rIdx = append(rIdx, j)
		case wire.StNotFound:
			errs[i] = ErrNotFound
		default:
			errs[i] = fmt.Errorf("efactory: get failed with status %d", g.Status)
		}
	}
	tRead := c.nowNS()
	if err := c.ep.ReadBatch(p, reqs); err != nil {
		for _, j := range rIdx {
			errs[fbIdx[j]] = err
		}
		return vals, errs
	}
	tc.Add("doorbell_read", tRead, c.nowNS())
	for _, j := range rIdx {
		i, g := fbIdx[j], grants[j]
		_, val, st := kv.CheckObject(sts[i].obj, keys[i], false)
		if st != kv.ObjOK {
			errs[i] = fmt.Errorf("efactory: server returned corrupt object at %d", g.Off)
			continue
		}
		vals[i] = append([]byte(nil), val...)
		if c.hints != nil {
			c.hints.Insert(sts[i].shard, keys[i], hint.Entry{
				Slot: int(g.Slot), Pool: g.RKey, Off: g.Off, Len: int(g.Len),
				KLen: int(g.KLen), Seq: g.Seq, Durable: g.Durable(),
			})
		}
	}
	return vals, errs
}

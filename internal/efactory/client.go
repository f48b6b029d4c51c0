package efactory

import (
	"errors"
	"fmt"

	"efactory/internal/adapt"
	"efactory/internal/cluster"
	"efactory/internal/crc"
	"efactory/internal/hint"
	"efactory/internal/kv"
	"efactory/internal/model"
	"efactory/internal/rnic"
	"efactory/internal/sim"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// ErrNotFound is returned by Get/Delete for absent keys.
var ErrNotFound = errors.New("efactory: key not found")

// ErrServerFull is returned by Put when the log and cleaning cannot make
// room.
var ErrServerFull = errors.New("efactory: server pool full")

// maxEntryProbes bounds client-side linear probing before falling back to
// the RPC path (the server probes authoritatively).
const maxEntryProbes = 4

// ClientStats counts client-side path choices.
type ClientStats struct {
	Puts             int
	Gets             int
	BatchedPuts      int // PUTs carried by doorbell-batched PutBatch chains
	BatchedGets      int // GETs carried by doorbell-batched GetBatch chains
	PureReads        int // GETs satisfied entirely one-sidedly
	HintedReads      int // pure reads whose probe walk was skipped by a hint hit
	FallbackReads    int // GETs that fell back to RPC after an undurable fetch
	RPCReads         int // GETs that went straight to RPC (cleaning / no hybrid)
	AdaptivePreempts int // GETs the read predictor routed straight to RPC
	Notifications    int // clean-start/end notifications processed
}

// shardGeom is one shard's one-sided addressing info: the rkeys of its
// hash-table region and its two data pools.
type shardGeom struct {
	tableRKey uint32
	poolRKey  [2]uint32
}

// Client is an eFactory client: it performs PUT with the client-active
// scheme (RPC allocation + one-sided value write) and GET with the hybrid
// read scheme, routing each key to its owning shard by the same hash
// split the server uses (cluster.ShardOf).
type Client struct {
	env      *sim.Env
	par      *model.Params
	nic      *rnic.NIC
	ep       *rnic.Endpoint
	shards   []shardGeom
	buckets  int // per shard
	hybrid   bool
	cleaning bool
	hints    *hint.Cache   // nil unless EnableHintCache was called
	tracer   *trace.Tracer // nil unless EnableTracing was called

	// pred, when non-nil (EnableAdaptive), preemptively routes reads of
	// recently-written objects straight to RPC instead of wasting the
	// optimistic one-sided fetch on a value whose durability flag cannot
	// be set yet. Off by default, keeping figures bit-identical.
	pred *adapt.ReadPredictor

	// Scratch buffers reused across operations, keeping the simulated
	// hot paths allocation-free on the host heap (rnic.Send copies the
	// payload, so reuse is safe the moment Send returns). A Client is
	// driven by a single sim proc — the harnesses attach one Client per
	// worker — so nothing else observes the scratch mid-operation.
	enc      []byte          // rpc request encoding
	ops      []wire.PutOp    // PutBatch op headers
	opsBuf   []byte          // encoded TPutBatch payload
	grants   []wire.PutGrant // decoded TPutBatchResp payload
	reqs     []rnic.WriteReq // doorbell-batched WRITE chain
	entryBuf []byte          // one hash-table entry (pure read probe)
	objBuf   []byte          // one object (pure read / RPC read fetch)

	Stats ClientStats
}

// predObserve feeds a hybrid-read outcome (pure success or fallback)
// back to the predictor's horizon estimator.
func (c *Client) predObserve(pure bool) {
	if c.pred == nil {
		return
	}
	if pure {
		c.pred.ObservePure()
	} else {
		c.pred.ObserveFallback()
	}
}

// scratchObj returns the client's object buffer resized to n bytes.
func (c *Client) scratchObj(n int) []byte {
	if cap(c.objBuf) < n {
		c.objBuf = make([]byte, n)
	}
	return c.objBuf[:n]
}

// SetHybridRead toggles the hybrid read scheme. Disabling it yields the
// "eFactory w/o hr" configuration from the paper's factor analysis (§6.1):
// every GET uses the RPC+RDMA path.
func (c *Client) SetHybridRead(on bool) { c.hybrid = on }

// EnableAdaptive turns on per-object adaptive hybrid reads: a read of an
// object this client wrote within the predictor's durability horizon
// skips the optimistic one-sided fetch (the durability flag cannot be
// set yet) and goes straight to RPC.
func (c *Client) EnableAdaptive() { c.pred = adapt.NewReadPredictor() }

// drainNotifications consumes any queued clean-start/end notifications
// without blocking, so a client that only issues one-sided reads still
// learns about log cleaning promptly.
func (c *Client) drainNotifications() {
	for {
		raw, ok := c.ep.RecvQueue().TryGet()
		if !ok {
			return
		}
		c.handleAsync(raw)
	}
}

func (c *Client) handleAsync(raw rnic.Message) bool {
	m, err := wire.Decode(raw.Data)
	if err != nil {
		return true
	}
	switch m.Type {
	case wire.TCleanStart:
		c.cleaning = true
		c.Stats.Notifications++
		return true
	case wire.TCleanEnd:
		c.cleaning = false
		c.Stats.Notifications++
		return true
	}
	return false
}

// rpc sends a request and blocks until the matching response, handling any
// notifications that arrive in between.
func (c *Client) rpc(p *sim.Proc, req wire.Msg) (wire.Msg, error) {
	c.enc = req.AppendEncode(c.enc[:0])
	if err := c.ep.Send(p, c.enc); err != nil {
		return wire.Msg{}, err
	}
	for {
		raw, ok := c.ep.Recv(p)
		if !ok {
			return wire.Msg{}, rnic.ErrCrashed
		}
		if c.handleAsync(raw) {
			continue
		}
		m, err := wire.Decode(raw.Data)
		if err != nil {
			return wire.Msg{}, err
		}
		c.cleaning = m.Note&wire.NoteCleaning != 0
		return m, nil
	}
}

// Put stores value under key using the client-active scheme with
// asynchronous durability (Figure 5): checksum the value, obtain an
// allocation via SEND-based RPC, then push the value with a one-sided
// write. No durability round trip — the background thread persists it.
func (c *Client) Put(p *sim.Proc, key, value []byte) error {
	c.drainNotifications()
	c.Stats.Puts++
	tc, tr0 := c.beginTrace("put", kv.HashKey(key))
	err := c.putTraced(p, tc, key, value)
	c.endTrace(tc, tr0, err)
	return err
}

func (c *Client) putTraced(p *sim.Proc, tc *trace.Ctx, key, value []byte) error {
	tCRC := c.nowNS()
	p.Sleep(c.par.CRCTime(len(value))) // client computes the CRC for the request
	sum := crc.Checksum(value)
	tc.Add("client_crc", tCRC, c.nowNS())
	tRPC := c.nowNS()
	resp, err := c.rpc(p, wire.Msg{Type: wire.TPut, Crc: sum, Len: uint64(len(value)), Key: key, Trace: tc.ID()})
	tc.Add("alloc_rpc", tRPC, c.nowNS())
	if err != nil {
		return err
	}
	switch resp.Status {
	case wire.StOK:
	case wire.StFull:
		return ErrServerFull
	default:
		return fmt.Errorf("efactory: put failed with status %d", resp.Status)
	}
	c.noteLocation(key, resp.RKey, resp.Off, int(resp.Len), len(key), 0, false)
	if c.pred != nil {
		c.pred.NotePut(kv.HashKey(key))
	}
	valOff := int(resp.Off) + kv.ValueOffset(len(key))
	tW := c.nowNS()
	err = c.ep.Write(p, value, resp.RKey, valOff)
	tc.Add("doorbell_write", tW, c.nowNS())
	return err
}

// PutBatch stores len(keys) key/value pairs with one allocation RPC and
// one doorbell-batched chain of one-sided WRITEs: every value write is
// posted before the client waits, and the chain completes in a single
// notification round. Completion-vs-durability semantics match Put —
// durability stays asynchronous, one object at a time, in the background.
// The returned slice has one entry per op, in order: nil, ErrServerFull,
// or a transport error shared by every op the failure reached.
func (c *Client) PutBatch(p *sim.Proc, keys, values [][]byte) []error {
	if len(keys) != len(values) {
		panic("efactory: PutBatch keys/values length mismatch")
	}
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return errs
	}
	c.drainNotifications()
	c.Stats.Puts += len(keys)
	tc, tr0 := c.beginTrace("put_batch", kv.HashKey(keys[0]))
	errs = c.putBatchTraced(p, tc, keys, values, errs)
	var first error
	for _, e := range errs {
		if e != nil {
			first = e
			break
		}
	}
	c.endTrace(tc, tr0, first)
	return errs
}

func (c *Client) putBatchTraced(p *sim.Proc, tc *trace.Ctx, keys, values [][]byte, errs []error) []error {
	ops := c.ops[:0]
	tCRC := c.nowNS()
	for i := range keys {
		p.Sleep(c.par.CRCTime(len(values[i])))
		ops = append(ops, wire.PutOp{Crc: crc.Checksum(values[i]), VLen: len(values[i]), Key: keys[i]})
	}
	c.ops = ops
	tc.Add("client_crc", tCRC, c.nowNS())
	fail := func(err error) []error {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return errs
	}
	c.opsBuf = wire.AppendPutOps(c.opsBuf[:0], ops)
	tRPC := c.nowNS()
	resp, err := c.rpc(p, wire.Msg{Type: wire.TPutBatch, Value: c.opsBuf, Trace: tc.ID()})
	tc.Add("alloc_rpc", tRPC, c.nowNS())
	if err != nil {
		return fail(err)
	}
	if resp.Status != wire.StOK {
		return fail(fmt.Errorf("efactory: put batch failed with status %d", resp.Status))
	}
	c.grants, err = wire.DecodePutGrantsInto(resp.Value, c.grants)
	grants := c.grants
	if err != nil || len(grants) != len(keys) {
		return fail(fmt.Errorf("efactory: malformed put batch response: %v", err))
	}
	reqs := c.reqs[:0]
	for i, g := range grants {
		switch g.Status {
		case wire.StOK:
			c.noteLocation(keys[i], g.RKey, g.Off, int(g.Len), len(keys[i]), 0, false)
			if c.pred != nil {
				c.pred.NotePut(kv.HashKey(keys[i]))
			}
			reqs = append(reqs, rnic.WriteReq{
				Src:  values[i],
				RKey: g.RKey,
				Off:  int(g.Off) + kv.ValueOffset(len(keys[i])),
			})
		case wire.StFull:
			errs[i] = ErrServerFull
		default:
			errs[i] = fmt.Errorf("efactory: put failed with status %d", g.Status)
		}
	}
	c.reqs = reqs
	tW := c.nowNS()
	if err := c.ep.WriteBatch(p, reqs); err != nil {
		return fail(err)
	}
	tc.Add("doorbell_write", tW, c.nowNS())
	c.Stats.BatchedPuts += len(reqs)
	return errs
}

// Get fetches the value for key with the hybrid read scheme (Figure 6):
// optimistically resolve the hash entry and the object with two one-sided
// reads and check the durability flag embedded in the object; if the
// object is not yet completely durable (or cleaning is in progress), fall
// back to the RPC+RDMA path where the server guarantees consistency.
func (c *Client) Get(p *sim.Proc, key []byte) ([]byte, error) {
	c.drainNotifications()
	c.Stats.Gets++
	tc, tr0 := c.beginTrace("get", kv.HashKey(key))
	val, err := c.getTraced(p, tc, key)
	c.endTrace(tc, tr0, err)
	return val, err
}

func (c *Client) getTraced(p *sim.Proc, tc *trace.Ctx, key []byte) ([]byte, error) {
	if c.hybrid && !c.cleaning {
		if c.pred != nil && c.pred.Preempt(kv.HashKey(key)) {
			// Written within the durability horizon: the optimistic
			// fetch would bounce, so take the authoritative path now.
			c.Stats.AdaptivePreempts++
			return c.rpcRead(p, tc, key)
		}
		if c.hints != nil {
			val, verdict, err := c.hintedRead(p, tc, key)
			if err != nil {
				return nil, err
			}
			switch verdict {
			case hrHit:
				c.Stats.PureReads++
				c.predObserve(true)
				return val, nil
			case hrFallback:
				c.Stats.FallbackReads++
				c.predObserve(false)
				return c.rpcRead(p, tc, key)
			}
			// hrMiss: no usable hint — run the probe walk below.
		}
		val, ok, err := c.pureRead(p, tc, key)
		if err != nil {
			return nil, err
		}
		if ok {
			c.Stats.PureReads++
			c.predObserve(true)
			return val, nil
		}
		c.Stats.FallbackReads++
		c.predObserve(false)
	} else {
		c.Stats.RPCReads++
	}
	return c.rpcRead(p, tc, key)
}

// pureRead attempts the pure one-sided path. ok is false when the client
// must fall back (entry missing client-side, undurable object, or a key
// mismatch from probing).
func (c *Client) pureRead(p *sim.Proc, tc *trace.Ctx, key []byte) (val []byte, ok bool, err error) {
	keyHash := kv.HashKey(key)
	g := c.shards[cluster.ShardOf(keyHash, len(c.shards))]
	idx := int(keyHash % uint64(c.buckets))
	var entry kv.Entry
	found := false
	slot := -1
	if c.entryBuf == nil {
		c.entryBuf = make([]byte, kv.EntrySize)
	}
	buf := c.entryBuf
	tProbe := c.nowNS()
	for probe := 0; probe < maxEntryProbes; probe++ {
		bucket := (idx + probe) % c.buckets
		if err := c.ep.Read(p, buf, g.tableRKey, bucket*kv.EntrySize); err != nil {
			return nil, false, err
		}
		e := kv.DecodeEntry(buf)
		if e.KeyHash == 0 {
			return nil, false, ErrNotFound
		}
		if e.Free() {
			continue // reclaimed slot: probe past it
		}
		if e.KeyHash == keyHash {
			entry, found, slot = e, true, bucket
			break
		}
	}
	tc.Add("entry_probe", tProbe, c.nowNS())
	if !found || entry.Tombstone() {
		return nil, false, nil // fall back; server resolves authoritatively
	}
	loc := entry.Current()
	if loc == 0 {
		return nil, false, nil
	}
	off, totalLen, _ := kv.UnpackLoc(loc)
	// Entry marks equal the pool index by construction.
	pool := g.poolRKey[entry.Mark()&1]
	obj := c.scratchObj(int(totalLen))
	tObj := c.nowNS()
	if err := c.ep.Read(p, obj, pool, int(off)); err != nil {
		return nil, false, err
	}
	tc.Add("object_read", tObj, c.nowNS())
	// Step 4: a complete, durable version of this key — otherwise (not
	// yet durable, a hash collision, torn metadata) the server resolves it.
	h, val, st := kv.CheckObject(obj, key, true)
	if st != kv.ObjOK {
		return nil, false, nil
	}
	if c.hints != nil {
		shard := cluster.ShardOf(keyHash, len(c.shards))
		c.hints.Insert(shard, key, hint.Entry{
			Slot: slot, Pool: pool, Off: off, Len: totalLen,
			KLen: h.KLen, Seq: h.Seq, Durable: true,
		})
	}
	return append([]byte(nil), val...), true, nil
}

// rpcRead is the RPC+RDMA read scheme: the server returns the location of
// a durable, intact version; the client fetches it one-sidedly.
func (c *Client) rpcRead(p *sim.Proc, tc *trace.Ctx, key []byte) ([]byte, error) {
	tRPC := c.nowNS()
	resp, err := c.rpc(p, wire.Msg{Type: wire.TGet, Key: key, Trace: tc.ID()})
	tc.Add("get_rpc", tRPC, c.nowNS())
	if err != nil {
		return nil, err
	}
	if resp.Status == wire.StNotFound {
		return nil, ErrNotFound
	}
	if resp.Status != wire.StOK {
		return nil, fmt.Errorf("efactory: get failed with status %d", resp.Status)
	}
	obj := c.scratchObj(int(resp.Len))
	tObj := c.nowNS()
	if err := c.ep.Read(p, obj, resp.RKey, int(resp.Off)); err != nil {
		return nil, err
	}
	tc.Add("object_read", tObj, c.nowNS())
	h, val, st := kv.CheckObject(obj, key, false)
	if st != kv.ObjOK {
		return nil, fmt.Errorf("efactory: server returned corrupt object at %d", resp.Off)
	}
	// The server only grants durable versions, so the hint is warm for the
	// next optimistic read.
	c.noteLocation(key, resp.RKey, resp.Off, int(resp.Len), h.KLen, h.Seq, true)
	return append([]byte(nil), val...), nil
}

// Delete removes key.
func (c *Client) Delete(p *sim.Proc, key []byte) error {
	c.drainNotifications()
	c.dropHint(key)
	tc, tr0 := c.beginTrace("del", kv.HashKey(key))
	tRPC := c.nowNS()
	resp, err := c.rpc(p, wire.Msg{Type: wire.TDel, Key: key, Trace: tc.ID()})
	tc.Add("del_rpc", tRPC, c.nowNS())
	if err == nil && resp.Status == wire.StNotFound {
		err = ErrNotFound
	}
	c.endTrace(tc, tr0, err)
	return err
}

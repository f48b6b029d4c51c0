package tcpkv

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"efactory/internal/adapt"
	"efactory/internal/cluster"
	"efactory/internal/crc"
	"efactory/internal/hint"
	"efactory/internal/kv"
	"efactory/internal/obs"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// ErrNotFound is returned by Get/Delete for absent keys.
var ErrNotFound = errors.New("tcpkv: key not found")

// ErrServerFull is returned by Put when the pool is exhausted.
var ErrServerFull = errors.New("tcpkv: server pool full")

// DefaultPipelineDepth bounds how many RPCs a client keeps in flight on
// its pipelined channel unless SetPipelineDepth says otherwise.
const DefaultPipelineDepth = 16

// Client is a TCP-mode eFactory client implementing the client-active
// write scheme and the hybrid read scheme over two connections: a
// pipelined RPC channel that carries many requests in flight at once
// (sequence-tagged frames, write-combined by a writer goroutine and
// demultiplexed by a reader goroutine) and a one-sided channel that
// carries one doorbell burst at a time. Methods are safe for concurrent use;
// concurrent RPCs share the pipelined connection instead of queueing
// behind each other.
type Client struct {
	addr string

	// mu guards connection state, the retry policy, and the counters —
	// not op I/O, which proceeds concurrently on the pipe.
	mu        sync.Mutex
	retry     RetryPolicy       // zero value: single attempt, no deadlines
	jitter    func(int64) int64 // backoff random source; nil = process-wide (tests seed it)
	pipeDepth int
	gen       uint64 // bumped per reconnect; concurrent retriers share one redial
	pipe      *pipe
	os        osLink

	// osMu serializes the one-sided channel: a burst's requests go out
	// with one Write and all its responses are read back before the next
	// burst starts.
	osMu sync.Mutex

	tableRKey    uint32 // shard 0's table rkey; shard s adds rkeysPerShard*s
	poolRKeyBase uint32 // shard 0's pools; shard s pool i is poolRKeyBase + rkeysPerShard*s + i
	buckets      int    // per shard
	shards       int

	// Hybrid disabled => every GET is an RPC (for comparison runs).
	// Configure before issuing concurrent ops.
	hybrid bool

	// hints is the client-side location/durability hint cache (nil unless
	// EnableHintCache was called). Like hybrid, configure before issuing
	// concurrent ops; the cache itself is internally synchronized.
	hints *hint.Cache

	// pred, when non-nil (EnableAdaptive), preemptively routes reads of
	// recently-written objects straight to RPC instead of wasting the
	// optimistic one-sided fetch on a value whose durability flag cannot
	// be set yet. Guarded by mu (the predictor itself is not
	// synchronized). Configure before issuing concurrent ops.
	pred *adapt.ReadPredictor

	// epoch is the cluster-map epoch stamped on routed requests (Token
	// field; 0 = unclustered, which every server accepts). Maintained by
	// SetClusterEpoch, which also bulk-invalidates the hint cache — a
	// hint learned under old placement must not survive a cutover.
	epoch atomic.Uint64

	// PureReads / FallbackReads / RPCReads mirror the simulation client's
	// path counters. Guarded by mu while ops are in flight; read them
	// quiesced.
	PureReads     int
	FallbackReads int
	RPCReads      int
	// BatchedGets counts GETs carried by GetBatch; HintedReads counts pure
	// reads whose probe walk was skipped by a hint-cache hit.
	BatchedGets int
	HintedReads int
	// AdaptivePreempts counts GETs the read predictor routed straight to
	// RPC (EnableAdaptive only).
	AdaptivePreempts int
	// Retries and Reconnects count recovery actions taken under the
	// client's RetryPolicy.
	Retries    int
	Reconnects int

	// tracer mints and retains request traces (nil unless EnableTracing
	// was called).
	tracer *trace.Tracer
}

// pipe is one pipelined RPC connection. Callers append their framed,
// sequence-tagged requests to a write-combining buffer and kick the
// writer goroutine, which swaps that buffer for its spare and puts
// everything queued on the socket with one Write; a reader goroutine
// demultiplexes responses back to the callers waiting on them by sequence
// number, so the connection carries up to depth RPCs in flight at once.
type pipe struct {
	conn    net.Conn
	timeout func() time.Duration // per-call bound, read at call time

	kick chan struct{} // cap 1: "wbuf has frames"
	done chan struct{}
	sem  chan struct{} // bounds in-flight calls to the pipeline depth

	mu      sync.Mutex
	wbuf    []byte // framed requests not yet handed to the writer
	pending map[uint32]chan pipeResult
	seq     uint32
	err     error
}

type pipeResult struct {
	payload []byte  // response message bytes (after the seq echo)
	raw     *[]byte // pooled backing of payload; release via releaseResp
	err     error
}

// callSlot is one pooled RPC call context: the request-frame scratch the
// caller encodes into and the reusable completion channel. The frame is
// copied into the pipe's write-combining buffer under pipe.mu, so no
// other goroutine ever reads it: the caller may reuse it the moment call
// returns. Slots live in a package-level pool rather than on the pipe, so
// scratch reuse survives reconnect generations — a client that redials
// keeps its warmed buffers.
type callSlot struct {
	frame []byte
	ch    chan pipeResult
}

var callSlotPool = sync.Pool{New: func() any {
	return &callSlot{frame: make([]byte, 0, 512), ch: make(chan pipeResult, 1)}
}}

// begin resets the slot's frame to the 8-byte [len][seq] placeholder the
// pipe fills in at send time; the caller appends the encoded message.
func (cs *callSlot) begin() {
	var hdr [8]byte
	cs.frame = append(cs.frame[:0], hdr[:]...)
}

// releaseResp returns a response buffer received from a callSlot
// exchange to the frame pool. Callers must be done with every byte that
// aliases it (Msg.Key/Value from wire.Decode included).
func releaseResp(bp *[]byte) {
	if bp != nil {
		frameBufPool.Put(bp)
	}
}

func newPipe(conn net.Conn, depth int, timeout func() time.Duration) *pipe {
	if depth < 1 {
		depth = 1
	}
	p := &pipe{
		conn:    conn,
		timeout: timeout,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		sem:     make(chan struct{}, depth),
		pending: make(map[uint32]chan pipeResult),
	}
	go p.writer()
	go p.reader()
	return p
}

// writer owns the socket's write side. On each kick it takes everything
// callers have queued — swapping the write-combining buffer for its
// spare, so callers keep appending while it writes — and sends it with
// one Write. Frames are [len][seq][msg] with the length prefix covering
// the 4-byte sequence tag. Each write runs under the shared
// attemptDeadline discipline (arm, write, clear) — nothing further is
// owed on the write side until the next request, and a stale deadline
// would poison an idle connection.
func (p *pipe) writer() {
	var spare []byte
	for {
		select {
		case <-p.done:
			return
		case <-p.kick:
		}
		p.mu.Lock()
		buf := p.wbuf
		p.wbuf = spare
		p.mu.Unlock()
		if len(buf) > 0 {
			dl := attemptDeadline{set: p.conn.SetWriteDeadline, d: p.timeout()}
			if err := dl.guard(func() error {
				_, err := p.conn.Write(buf)
				return err
			}); err != nil {
				p.fail(err)
				return
			}
		}
		// Keep the drained buffer as the next spare unless one outsized
		// request grew it past what a burst needs.
		spare = nil
		if cap(buf) <= burstBufSize {
			spare = buf[:0]
		}
	}
}

// reader demultiplexes responses to waiting callers through a buffered
// reader, so a run of responses that arrived together costs one read
// syscall. It reads with no deadline: an idle pipelined connection must
// be able to sit quietly between bursts without spuriously timing out.
// Timeliness is enforced per call in call(), where a caller that stops
// waiting kills the pipe.
func (p *pipe) reader() {
	br := bufio.NewReaderSize(p.conn, burstBufSize)
	for {
		bp := frameBufPool.Get().(*[]byte)
		raw, err := readFrameInto(br, *bp)
		if err != nil {
			frameBufPool.Put(bp)
			p.fail(err)
			return
		}
		*bp = raw[:0] // keep any growth in the pooled backing
		if len(raw) < 4 {
			frameBufPool.Put(bp)
			p.fail(errors.New("tcpkv: short pipelined frame"))
			return
		}
		seq := binary.BigEndian.Uint32(raw)
		p.mu.Lock()
		ch := p.pending[seq]
		delete(p.pending, seq)
		p.mu.Unlock()
		if ch != nil {
			ch <- pipeResult{payload: raw[4:], raw: bp}
		} else {
			frameBufPool.Put(bp)
		}
	}
}

// fail marks the pipe dead exactly once: the socket closes (unblocking the
// reader and writer), every pending caller gets err, and future calls fail
// fast.
func (p *pipe) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	p.err = err
	close(p.done)
	p.conn.Close()
	for seq, ch := range p.pending {
		delete(p.pending, seq)
		ch <- pipeResult{err: err}
	}
}

func (p *pipe) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *pipe) forget(seq uint32) {
	p.mu.Lock()
	delete(p.pending, seq)
	p.mu.Unlock()
}

// call issues one RPC from a prepared slot and waits for its response.
// cs.frame must hold the 8-byte [len][seq] placeholder (callSlot.begin)
// followed by the encoded message; call stamps the placeholder and
// copies the frame into the write-combining buffer under p.mu. The
// sequence number is the call's identity on the shared connection: an op
// retried after a failure re-enters a fresh pipe under a fresh sequence,
// so acknowledged sequences are never replayed.
//
// clean reports whether the slot's channel completed its exchange (a
// result — success or error — was received on cs.ch): only then may the
// caller return cs to the pool. On the timeout/shutdown paths the reader
// or fail may still send on cs.ch, so the slot must be abandoned to the
// GC. The frame itself is never shared, whatever the outcome.
func (p *pipe) call(cs *callSlot) (r pipeResult, clean bool) {
	select {
	case p.sem <- struct{}{}:
	case <-p.done:
		return pipeResult{err: p.failure()}, false
	}
	defer func() { <-p.sem }()

	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		return pipeResult{err: p.err}, false
	}
	p.seq++
	seq := p.seq
	p.pending[seq] = cs.ch
	binary.BigEndian.PutUint32(cs.frame, uint32(len(cs.frame)-4))
	binary.BigEndian.PutUint32(cs.frame[4:], seq)
	p.wbuf = append(p.wbuf, cs.frame...)
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default: // a kick is already pending; the writer will take this frame too
	}

	var expired <-chan time.Time
	if d := p.timeout(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		expired = t.C
	}
	select {
	case r := <-cs.ch:
		return r, true
	case <-expired:
		// This sequence has no waiter anymore; the connection can no
		// longer be trusted to stay in sync, so fail everything over
		// together and let the retry path redial.
		p.forget(seq)
		p.fail(os.ErrDeadlineExceeded)
		return pipeResult{err: os.ErrDeadlineExceeded}, false
	}
}

// dialLocked (re)establishes both channels. Callers hold c.mu.
func (c *Client) dialLocked() error {
	rpcConn, err := dialChannel(c.addr, chanRPCPipe)
	if err != nil {
		return err
	}
	osConn, err := dialChannel(c.addr, chanOneSided)
	if err != nil {
		rpcConn.Close()
		return err
	}
	c.pipe = newPipe(rpcConn, c.pipeDepth, c.callTimeout)
	c.os = osLink{conn: osConn, r: bufio.NewReaderSize(osConn, burstBufSize)}
	return nil
}

// callTimeout reads the current per-attempt timeout; the pipe consults it
// at call time so SetRetryPolicy applies to live connections.
func (c *Client) callTimeout() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retry.Timeout
}

// Dial connects to a tcpkv server and performs the geometry handshake.
// The returned client performs no retries; see SetRetryPolicy.
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr, hybrid: true, pipeDepth: DefaultPipelineDepth}
	c.mu.Lock()
	err := c.dialLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	resp, err := c.rpc(wire.Msg{Type: wire.THello})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpkv: handshake: %w", err)
	}
	c.tableRKey = resp.RKey
	c.poolRKeyBase = resp.Token
	c.buckets = int(resp.Len)
	c.shards = int(resp.Off)
	if c.shards <= 0 {
		c.shards = 1 // pre-sharding servers leave Off zero
	}
	if c.buckets <= 0 {
		c.Close()
		return nil, errors.New("tcpkv: bad handshake geometry")
	}
	return c, nil
}

// shardRKeysFor returns the table rkey and pool rkey base of the shard
// owning keyHash.
func (c *Client) shardRKeysFor(keyHash uint64) (table, poolBase uint32) {
	sh := uint32(cluster.ShardOf(keyHash, c.shards))
	return c.tableRKey + rkeysPerShard*sh, c.poolRKeyBase + rkeysPerShard*sh
}

// Close tears both connections down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pipe.fail(net.ErrClosed)
	return c.os.conn.Close()
}

// SetHybridRead toggles the hybrid read scheme.
func (c *Client) SetHybridRead(on bool) { c.hybrid = on }

// SetClusterEpoch records the cluster-map epoch routed requests should
// carry. Forward-only; advancing it bulk-invalidates the hint cache,
// since every resident hint was learned under placement that may no
// longer hold.
func (c *Client) SetClusterEpoch(epoch uint64) {
	for {
		cur := c.epoch.Load()
		if epoch <= cur {
			return
		}
		if c.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	if c.hints != nil {
		c.hints.AdvanceEpoch(epoch)
	}
}

// ClusterEpoch returns the epoch routed requests currently carry.
func (c *Client) ClusterEpoch() uint64 { return c.epoch.Load() }

// wrongEpoch maps an StWrongEpoch response to the typed error routed
// clients dispatch on, recording the server's proven epoch.
func wrongEpoch(resp wire.Msg) error {
	return &cluster.WrongEpochError{Epoch: uint64(resp.Token)}
}

// SetRetryPolicy installs rp; ops issued afterwards retry transient
// transport failures (reconnecting between attempts) and bound each
// attempt with rp.Timeout.
func (c *Client) SetRetryPolicy(rp RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = rp
}

// SetPipelineDepth bounds how many RPCs the client keeps in flight on the
// pipelined channel (default DefaultPipelineDepth). The connection is
// re-established to apply the new depth, so call it quiesced: RPCs in
// flight on the old connection are failed.
func (c *Client) SetPipelineDepth(n int) error {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pipeDepth = n
	c.pipe.fail(net.ErrClosed)
	c.os.conn.Close()
	if err := c.dialLocked(); err != nil {
		return err
	}
	c.gen++
	return nil
}

// reconnect replaces both channels with fresh ones — unless another caller
// already did: concurrent ops that observed a failure on the same
// connection generation share a single redial instead of dialing over each
// other. Geometry is not re-fetched: it is a property of the server's
// device layout, which a reconnect cannot change.
func (c *Client) reconnect(genSeen uint64) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != genSeen {
		return c.gen, nil // another op's retry already reconnected
	}
	c.pipe.fail(net.ErrClosed)
	c.os.conn.Close()
	if err := c.dialLocked(); err != nil {
		return c.gen, err
	}
	c.gen++
	c.Reconnects++
	return c.gen, nil
}

// rpc performs one request/response over the pipelined channel. Concurrent
// callers share the connection; responses demultiplex by sequence number.
// The decoded Msg may alias the response buffer, which is left to the GC —
// hot paths that can bound the response's lifetime use rpcShared instead.
func (c *Client) rpc(req wire.Msg) (wire.Msg, error) {
	m, _, err := c.rpcShared(&req)
	return m, err
}

// rpcShared is rpc for callers that finish with the response before
// their next operation: the returned Msg aliases the returned pooled
// buffer, which the caller gives back via releaseResp once every aliased
// byte (Key/Value) is dead. A nil buffer is safe to release.
func (c *Client) rpcShared(req *wire.Msg) (wire.Msg, *[]byte, error) {
	c.mu.Lock()
	p := c.pipe
	c.mu.Unlock()
	cs := callSlotPool.Get().(*callSlot)
	cs.begin()
	cs.frame = req.AppendEncode(cs.frame)
	r, clean := p.call(cs)
	if clean {
		callSlotPool.Put(cs)
	}
	if r.err != nil {
		releaseResp(r.raw)
		return wire.Msg{}, nil, r.err
	}
	m, err := wire.Decode(r.payload)
	if err != nil {
		releaseResp(r.raw)
		return wire.Msg{}, nil, err
	}
	return m, r.raw, nil
}

// osLink is the one-sided connection and the buffered reader its
// responses are consumed through; replaced whole on reconnect.
type osLink struct {
	conn net.Conn
	r    *bufio.Reader
}

// osBurst is one doorbell burst on the one-sided channel: its request
// frames are encoded back to back and posted with one Write, and the
// responses are read, in order, into one arena. A burst is checked out
// of osBurstPool per call rather than kept per client: the response
// views a caller decodes outlive the channel lock (osMu), and concurrent
// callers each need their own.
type osBurst struct {
	req   []byte // framed requests
	n     int    // request count
	arena []byte // response payloads back to back, each status byte first
	ends  []int  // ends[i] is response i's end offset in arena
}

var osBurstPool = sync.Pool{New: func() any {
	return &osBurst{req: make([]byte, 0, 1024), arena: make([]byte, 0, 4096)}
}}

// getBurst checks an empty burst out of the pool. putBurst returns it
// once nothing aliases its arena any more.
func getBurst() *osBurst {
	b := osBurstPool.Get().(*osBurst)
	b.reset()
	return b
}

func putBurst(b *osBurst) { osBurstPool.Put(b) }

func (b *osBurst) reset() {
	b.req, b.n, b.arena, b.ends = b.req[:0], 0, b.arena[:0], b.ends[:0]
}

// add appends one framed request: the length prefix, the opcode, the
// (rkey, offset, length) triple, then data (a WRITE's payload).
func (b *osBurst) add(op byte, rkey uint32, off uint64, length int, data []byte) {
	var hdr [21]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(17+len(data)))
	hdr[4] = op
	binary.BigEndian.PutUint32(hdr[5:], rkey)
	binary.BigEndian.PutUint64(hdr[9:], off)
	binary.BigEndian.PutUint32(hdr[17:], uint32(length))
	b.req = append(append(b.req, hdr[:]...), data...)
	b.n++
}

// read queues a one-sided READ of length bytes at (rkey, off).
func (b *osBurst) read(rkey uint32, off uint64, length int) {
	b.add(opRead, rkey, off, length, nil)
}

// write queues a one-sided WRITE of data at (rkey, off).
func (b *osBurst) write(rkey uint32, off uint64, data []byte) {
	b.add(opWrite, rkey, off, len(data), data)
}

// resp returns response i's data and whether it was ACKed; a NAK means
// the addressed region did not resolve. The data aliases the arena.
func (b *osBurst) resp(i int) ([]byte, bool) {
	start := 0
	if i > 0 {
		start = b.ends[i-1]
	}
	r := b.arena[start:b.ends[i]]
	if len(r) < 1 || r[0] != 1 {
		return nil, false
	}
	return r[1:], true
}

// entry decodes response i as a hash-table entry; false on a NAK or a
// reply too short to hold one.
func (b *osBurst) entry(i int) (kv.Entry, bool) {
	data, ok := b.resp(i)
	if !ok || len(data) < kv.EntrySize {
		return kv.Entry{}, false
	}
	return kv.DecodeEntry(data), true
}

// acked reports whether every response in the burst was an ACK.
func (b *osBurst) acked() bool {
	for i := 0; i < b.n; i++ {
		if _, ok := b.resp(i); !ok {
			return false
		}
	}
	return true
}

// exchange posts b's requests with one Write and reads one response per
// request into b's arena: the one-sided channel's doorbell batch. One
// attemptDeadline covers the whole exchange. A failed exchange closes the
// connection — its byte stream may hold half a burst — so the next op
// redials instead of reading stale responses.
func (c *Client) exchange(b *osBurst) error {
	if b.n == 0 {
		return nil
	}
	c.mu.Lock()
	link := c.os
	dl := attemptDeadline{set: link.conn.SetDeadline, d: c.retry.Timeout}
	c.mu.Unlock()
	c.osMu.Lock()
	defer c.osMu.Unlock()
	err := dl.guard(func() error {
		if _, err := link.conn.Write(b.req); err != nil {
			return err
		}
		b.arena, b.ends = b.arena[:0], b.ends[:0]
		for i := 0; i < b.n; i++ {
			var err error
			if b.arena, err = appendFrame(link.r, b.arena); err != nil {
				return err
			}
			b.ends = append(b.ends, len(b.arena))
		}
		return nil
	})
	if err != nil {
		link.conn.Close()
	}
	return err
}

// read performs a single one-sided READ of length bytes at (rkey, off)
// through b (reset first); the returned bytes alias b's arena.
func (c *Client) read(b *osBurst, rkey uint32, off uint64, length int) ([]byte, error) {
	b.reset()
	b.read(rkey, off, length)
	if err := c.exchange(b); err != nil {
		return nil, err
	}
	data, ok := b.resp(0)
	if !ok {
		return nil, errors.New("tcpkv: one-sided read NAK")
	}
	return data, nil
}

// writeBurst posts b's WRITEs as one burst and checks every ack.
func (c *Client) writeBurst(b *osBurst) error {
	if err := c.exchange(b); err != nil {
		return err
	}
	if !b.acked() {
		return errors.New("tcpkv: one-sided write NAK")
	}
	return nil
}

func (c *Client) bump(field *int) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// EnableAdaptive turns on per-object adaptive hybrid reads: a read of an
// object written within the predictor's durability horizon skips the
// optimistic one-sided fetch (which would bounce off the unset
// durability flag) and goes straight to RPC. Off by default — figures
// and tests that pin the classic hybrid path stay bit-identical.
// Configure before issuing concurrent ops.
func (c *Client) EnableAdaptive() {
	c.pred = adapt.NewReadPredictor()
}

// predNotePut records a completed PUT with the read predictor.
func (c *Client) predNotePut(keyHash uint64) {
	if c.pred == nil {
		return
	}
	c.mu.Lock()
	c.pred.NotePut(keyHash)
	c.mu.Unlock()
}

// predPreempt asks the read predictor whether to skip the optimistic
// fetch for keyHash.
func (c *Client) predPreempt(keyHash uint64) bool {
	if c.pred == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pred.Preempt(keyHash)
}

// predObserve feeds a hybrid-read outcome (pure success or fallback)
// back to the predictor's horizon estimator.
func (c *Client) predObserve(pure bool) {
	if c.pred == nil {
		return
	}
	c.mu.Lock()
	if pure {
		c.pred.ObservePure()
	} else {
		c.pred.ObserveFallback()
	}
	c.mu.Unlock()
}

// Put stores value under key: checksum, allocation RPC, one-sided value
// write — no durability round trip (asynchronous durability).
func (c *Client) Put(key, value []byte) error {
	tc, t0 := c.beginTrace("put", kv.HashKey(key))
	err := c.putCtx(tc, key, value)
	c.endTrace(tc, t0, err)
	return err
}

// putCtx is Put's body under a caller-owned trace context (nil =
// untraced); ClusterClient threads its routed-op context through here.
func (c *Client) putCtx(tc *trace.Ctx, key, value []byte) error {
	tCRC := traceNow(tc)
	sum := crc.Checksum(value)
	tc.Add("client_crc", tCRC, traceNow(tc))
	return c.retrying(func() error {
		// A retried attempt redoes the allocation RPC: the previous
		// attempt's slot (if it was granted) is left torn and gets
		// invalidated by background verification.
		tRPC := traceNow(tc)
		req := wire.Msg{Type: wire.TPut, Trace: tc.ID(), Token: uint32(c.epoch.Load()), Crc: sum, Len: uint64(len(value)), Key: key}
		resp, raw, err := c.rpcShared(&req)
		tc.Add("alloc_rpc", tRPC, traceNow(tc))
		if err != nil {
			return err
		}
		// TPutResp carries scalars only — nothing aliases the buffer.
		releaseResp(raw)
		switch resp.Status {
		case wire.StOK:
		case wire.StFull:
			return ErrServerFull
		case wire.StWrongEpoch:
			return wrongEpoch(resp)
		default:
			return fmt.Errorf("tcpkv: put status %d", resp.Status)
		}
		c.noteLocation(key, resp.RKey, resp.Off, int(resp.Len), len(key), 0, false)
		c.predNotePut(kv.HashKey(key))
		tW := traceNow(tc)
		b := getBurst()
		b.write(resp.RKey, resp.Off+uint64(kv.ValueOffset(len(key))), value)
		err = c.writeBurst(b)
		putBurst(b)
		tc.Add("doorbell_write", tW, traceNow(tc))
		return err
	})
}

// PutBatch stores len(keys) key/value pairs with one multi-op allocation
// RPC and one burst of one-sided value writes, every frame posted before
// the first completion is awaited — the TCP analogue of a doorbell-batched
// WRITE chain. Completion semantics match Put: durability stays
// asynchronous, handled by the background verifier. The returned slice has
// one entry per op, in order: nil, ErrServerFull, or a transport error
// shared by every op the failure reached.
func (c *Client) PutBatch(keys, values [][]byte) []error {
	return c.PutBatchInto(keys, values, nil)
}

// PutBatchInto is PutBatch with a caller-owned error slice: when errs
// has the capacity it is resliced and returned, so a steady-state caller
// (a closed-loop load driver, a benchmark) reuses one slice for its
// whole run and the batch write path allocates nothing.
func (c *Client) PutBatchInto(keys, values [][]byte, errs []error) []error {
	if len(keys) != len(values) {
		panic("tcpkv: PutBatch keys/values length mismatch")
	}
	if cap(errs) >= len(keys) {
		errs = errs[:len(keys)]
	} else {
		errs = make([]error, len(keys))
	}
	if len(keys) == 0 {
		return errs
	}
	tc, t0 := c.beginTrace("put_batch", kv.HashKey(keys[0]))
	c.putBatchCtx(tc, keys, values, errs)
	ferr := error(nil)
	for i := 0; ferr == nil && i < len(errs); i++ {
		ferr = errs[i]
	}
	c.endTrace(tc, t0, ferr)
	return errs
}

// putBatchScratch holds one PutBatch call's reusable buffers: the op
// list, its encoded payload, and the decoded grants. Pooled
// package-wide, so the warmed buffers survive reconnects and concurrent
// batches each check out their own.
type putBatchScratch struct {
	ops    []wire.PutOp
	opsBuf []byte
	grants []wire.PutGrant
}

var putBatchScratchPool = sync.Pool{New: func() any { return &putBatchScratch{} }}

// putBatchCtx is PutBatch's body under a caller-owned trace context.
// errs must be len(keys) long; it is filled in place.
func (c *Client) putBatchCtx(tc *trace.Ctx, keys, values [][]byte, errs []error) {
	sc := putBatchScratchPool.Get().(*putBatchScratch)
	defer putBatchScratchPool.Put(sc)
	tCRC := traceNow(tc)
	ops := sc.ops[:0]
	for i := range keys {
		ops = append(ops, wire.PutOp{Crc: crc.Checksum(values[i]), VLen: len(values[i]), Key: keys[i]})
	}
	sc.ops = ops
	tc.Add("client_crc", tCRC, traceNow(tc))
	sc.opsBuf = wire.AppendPutOps(sc.opsBuf[:0], ops)
	req := wire.Msg{Type: wire.TPutBatch, Trace: tc.ID(), Value: sc.opsBuf}
	err := c.retrying(func() error {
		for i := range errs {
			errs[i] = nil // a retried attempt regrants every slot
		}
		req.Token = uint32(c.epoch.Load())
		tRPC := traceNow(tc)
		resp, raw, err := c.rpcShared(&req)
		tc.Add("alloc_rpc", tRPC, traceNow(tc))
		if err != nil {
			return err
		}
		if resp.Status == wire.StWrongEpoch {
			releaseResp(raw)
			return wrongEpoch(resp)
		}
		if resp.Status != wire.StOK {
			releaseResp(raw)
			return fmt.Errorf("tcpkv: put batch status %d", resp.Status)
		}
		grants, gerr := wire.DecodePutGrantsInto(resp.Value, sc.grants)
		if gerr == nil {
			sc.grants = grants
		}
		// Grants are scalar copies — the response buffer is now free.
		releaseResp(raw)
		if gerr != nil {
			return fmt.Errorf("tcpkv: malformed put batch response: %w", gerr)
		}
		if len(grants) != len(keys) {
			return fmt.Errorf("tcpkv: put batch returned %d grants for %d ops", len(grants), len(keys))
		}
		b := getBurst()
		defer putBurst(b)
		for i, g := range grants {
			switch g.Status {
			case wire.StOK:
				c.noteLocation(keys[i], g.RKey, g.Off, int(g.Len), len(keys[i]), 0, false)
				c.predNotePut(kv.HashKey(keys[i]))
				b.write(g.RKey, g.Off+uint64(kv.ValueOffset(len(keys[i]))), values[i])
			case wire.StFull:
				errs[i] = ErrServerFull
			default:
				errs[i] = fmt.Errorf("tcpkv: put status %d", g.Status)
			}
		}
		tW := traceNow(tc)
		werr := c.writeBurst(b)
		tc.Add("doorbell_write", tW, traceNow(tc))
		return werr
	})
	if err != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
	}
}

// Get fetches key's value with the hybrid read scheme.
func (c *Client) Get(key []byte) ([]byte, error) {
	tc, t0 := c.beginTrace("get", kv.HashKey(key))
	out, err := c.getCtx(tc, key)
	c.endTrace(tc, t0, err)
	return out, err
}

// getCtx is Get's body under a caller-owned trace context. One burst
// carries every one-sided exchange of the call; the value is copied out
// of its arena before the burst goes back to the pool.
func (c *Client) getCtx(tc *trace.Ctx, key []byte) ([]byte, error) {
	b := getBurst()
	defer putBurst(b)
	var out []byte
	err := c.retrying(func() error {
		if c.hybrid && c.predPreempt(kv.HashKey(key)) {
			// The object was written within the durability horizon: the
			// optimistic fetch would bounce, so spend the round trip on
			// the authoritative path directly.
			c.bump(&c.AdaptivePreempts)
			val, err := c.rpcRead(tc, b, key)
			if err != nil {
				return err
			}
			out = val
			return nil
		}
		if c.hybrid {
			if c.hints != nil {
				val, verdict, err := c.hintedRead(tc, b, key)
				if err != nil {
					return err
				}
				switch verdict {
				case hrHit:
					c.bump(&c.PureReads)
					c.predObserve(true)
					out = val
					return nil
				case hrFallback:
					c.bump(&c.FallbackReads)
					c.predObserve(false)
					val, err := c.rpcRead(tc, b, key)
					if err != nil {
						return err
					}
					out = val
					return nil
				}
				// hrMiss: no usable hint — run the probe walk below.
			}
			val, ok, err := c.pureRead(tc, b, key)
			if err != nil {
				return err
			}
			if ok {
				c.bump(&c.PureReads)
				c.predObserve(true)
				out = val
				return nil
			}
			c.bump(&c.FallbackReads)
			c.predObserve(false)
		} else {
			c.bump(&c.RPCReads)
		}
		val, err := c.rpcRead(tc, b, key)
		if err != nil {
			return err
		}
		out = val
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pureRead is the optimistic one-sided path; ok is false on fallback.
func (c *Client) pureRead(tc *trace.Ctx, b *osBurst, key []byte) (val []byte, ok bool, err error) {
	keyHash := kv.HashKey(key)
	tableRKey, poolBase := c.shardRKeysFor(keyHash)
	idx := int(keyHash % uint64(c.buckets))
	var entry kv.Entry
	found := false
	slot := -1
	tProbe := traceNow(tc)
	for probe := 0; probe < 4; probe++ {
		bucket := (idx + probe) % c.buckets
		b.reset()
		b.read(tableRKey, uint64(bucket*kv.EntrySize), kv.EntrySize)
		if err := c.exchange(b); err != nil {
			return nil, false, err
		}
		e, ok := b.entry(0)
		if !ok {
			return nil, false, errors.New("tcpkv: one-sided read NAK")
		}
		if e.KeyHash == 0 {
			if c.epoch.Load() != 0 {
				// Clustered: an empty bucket may mean the key migrated away
				// and was purged, not that it is absent. Only the owning
				// server may conclude NotFound — fall back to the RPC path,
				// where a misroute surfaces as StWrongEpoch.
				return nil, false, nil
			}
			return nil, false, ErrNotFound
		}
		if e.Free() {
			continue
		}
		if e.KeyHash == keyHash {
			entry, found, slot = e, true, bucket
			break
		}
	}
	tc.Add("entry_probe", tProbe, traceNow(tc))
	if !found || entry.Tombstone() || entry.Current() == 0 {
		return nil, false, nil
	}
	off, totalLen, _ := kv.UnpackLoc(entry.Current())
	tObj := traceNow(tc)
	obj, err := c.read(b, poolBase+uint32(entry.Mark()&1), off, totalLen)
	tc.Add("object_read", tObj, traceNow(tc))
	if err != nil {
		return nil, false, err
	}
	h, v, st := kv.CheckObject(obj, key, true)
	if st != kv.ObjOK {
		return nil, false, nil
	}
	if c.hints != nil {
		c.hints.Insert(cluster.ShardOf(keyHash, c.shards), key, hint.Entry{
			Slot: slot, Pool: poolBase + uint32(entry.Mark()&1), Off: off, Len: totalLen,
			KLen: h.KLen, Seq: h.Seq, Durable: true,
		})
	}
	return append([]byte(nil), v...), true, nil
}

// rpcRead is the RPC+one-sided fallback.
func (c *Client) rpcRead(tc *trace.Ctx, b *osBurst, key []byte) ([]byte, error) {
	tRPC := traceNow(tc)
	req := wire.Msg{Type: wire.TGet, Trace: tc.ID(), Token: uint32(c.epoch.Load()), Key: key}
	resp, raw, err := c.rpcShared(&req)
	tc.Add("get_rpc", tRPC, traceNow(tc))
	if err != nil {
		return nil, err
	}
	// TGetResp carries scalars only — nothing aliases the buffer.
	releaseResp(raw)
	if resp.Status == wire.StNotFound {
		return nil, ErrNotFound
	}
	if resp.Status == wire.StWrongEpoch {
		return nil, wrongEpoch(resp)
	}
	if resp.Status != wire.StOK {
		return nil, fmt.Errorf("tcpkv: get status %d", resp.Status)
	}
	tObj := traceNow(tc)
	obj, err := c.read(b, resp.RKey, resp.Off, int(resp.Len))
	tc.Add("object_read", tObj, traceNow(tc))
	if err != nil {
		return nil, err
	}
	h, v, st := kv.CheckObject(obj, key, false)
	if st != kv.ObjOK {
		return nil, errors.New("tcpkv: corrupt object from server")
	}
	// The server only grants durable versions, so the hint is warm for the
	// next optimistic read.
	c.noteLocation(key, resp.RKey, resp.Off, int(resp.Len), h.KLen, h.Seq, true)
	return append([]byte(nil), v...), nil
}

// ServerStats fetches the server's counters.
func (c *Client) ServerStats() (Stats, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TStats})
	if err != nil {
		return Stats{}, err
	}
	if resp.Status != wire.StOK {
		return Stats{}, fmt.Errorf("tcpkv: stats status %d", resp.Status)
	}
	var st Stats
	if err := json.Unmarshal(resp.Value, &st); err != nil {
		return Stats{}, fmt.Errorf("tcpkv: stats decode: %w", err)
	}
	return st, nil
}

// ShardStats fetches per-shard server counters (one element per shard).
// Pre-sharding servers answer the unknown type with an error status, which
// surfaces as a normal error here.
func (c *Client) ShardStats() ([]Stats, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TShardStats})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StOK {
		return nil, fmt.Errorf("tcpkv: shard stats status %d", resp.Status)
	}
	var st []Stats
	if err := json.Unmarshal(resp.Value, &st); err != nil {
		return nil, fmt.Errorf("tcpkv: shard stats decode: %w", err)
	}
	return st, nil
}

// Metrics fetches the server's telemetry snapshot (per-shard per-op
// latency histograms, gauges, counters). Servers predating the TMetrics
// type answer with an error status, which surfaces as a normal error.
func (c *Client) Metrics() (obs.Snapshot, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TMetrics})
	if err != nil {
		return obs.Snapshot{}, err
	}
	if resp.Status != wire.StOK {
		return obs.Snapshot{}, fmt.Errorf("tcpkv: metrics status %d", resp.Status)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(resp.Value, &snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("tcpkv: metrics decode: %w", err)
	}
	return snap, nil
}

// Delete removes key.
func (c *Client) Delete(key []byte) error {
	tc, t0 := c.beginTrace("del", kv.HashKey(key))
	err := c.delCtx(tc, key)
	c.endTrace(tc, t0, err)
	return err
}

// delCtx is Delete's body under a caller-owned trace context.
func (c *Client) delCtx(tc *trace.Ctx, key []byte) error {
	var st delRetryState
	return c.delCtxState(tc, key, &st)
}

// delCtxState runs the DELETE with caller-owned at-least-once state, so
// a routed caller re-trying against a different instance after a
// failover keeps the ambiguity accumulated here (a DEL acked nowhere but
// applied somewhere must map a later not-found to success).
func (c *Client) delCtxState(tc *trace.Ctx, key []byte, st *delRetryState) error {
	c.dropHint(key)
	return c.retrying(func() error {
		tRPC := traceNow(tc)
		resp, err := c.rpc(wire.Msg{Type: wire.TDel, Trace: tc.ID(), Token: uint32(c.epoch.Load()), Key: key})
		tc.Add("del_rpc", tRPC, traceNow(tc))
		if err != nil {
			st.noteUnknown()
			return err
		}
		switch resp.Status {
		case wire.StWrongEpoch:
			return wrongEpoch(resp)
		case wire.StNotFound:
			return st.mapNotFound()
		case wire.StOK:
			return nil
		default:
			// The server applied the delete locally but could not
			// acknowledge it (e.g. the tombstone missed its replication
			// quorum): outcome unknown cluster-wide, retry elsewhere.
			st.noteUnknown()
			return fmt.Errorf("%w: del status %d", ErrRetryable, resp.Status)
		}
	})
}

package main

import (
	"cmp"
	"runtime"
	"slices"

	"efactory/internal/obs"
	"efactory/internal/tcpkv"
	"efactory/internal/trace"
)

// perLayerNames lists the per-layer metrics a traced run reports, each
// named <module>.<metric>. A metric whose layer did no work in the
// workload reads 0.
var perLayerNames = []string{
	"tcpkv.client.get_pure_share",
	"tcpkv.client.fallback_share",
	"tcpkv.client.crc_us",
	"tcpkv.client.alloc_rpc_us",
	"tcpkv.client.doorbell_write_us",
	"tcpkv.client.entry_probe_us",
	"tcpkv.client.object_read_us",
	"tcpkv.client.doorbell_read_us",
	"tcpkv.client.get_rpc_us",
	"tcpkv.client.unattributed_us",
	"tcpkv.client.retries",
	"tcpkv.server.rpc_us",
	"tcpkv.server.transport_gap_us",
	"net.read_calls_per_op",
	"net.write_calls_per_op",
	"net.bytes_in_per_op",
	"net.bytes_out_per_op",
	"net.write_us_per_op",
	"store.put_us",
	"store.get_us",
	"store.alloc_us",
	"store.lookup_us",
	"store.bg_crc_us_per_put",
	"store.bg_flush_us_per_put",
	"store.bg_verified_per_put",
	"store.clean_runs",
	"store.clean_moved_per_put",
	"store.clean_dropped_per_put",
	"store.clean_copy_us_per_put",
	"store.alloc_failures_per_op",
	"store.get_fast_path_share",
	"store.recovery_s",
	"nvm.flush_bytes_per_user_byte",
	"nvm.flush_calls_per_put",
	"nvm.write_bytes_per_user_byte",
	"nvm.read_bytes_per_get",
	"nvm.busy_us_per_op",
	"go.allocs_per_op",
	"go.gc_cycles_per_kop",
	"trace.overhead_ratio",
}

// traceStoreTarget is how many traced calls the traced phase aims to
// retain: below trace.DefaultStoreCap, so the bounded stores keep every
// sampled trace.
const traceStoreTarget = trace.DefaultStoreCap * 3 / 4

// layerSnap is the counter state of every layer at one instant.
type layerSnap struct {
	pure, fallback, batched, retries int
	st                               tcpkv.Stats
	m                                obs.Snapshot
	dev                              deviceCounts
	net                              netCounts
}

func snapLayers(e *env) layerSnap {
	c := e.cli // quiesced: its counters are read without the client lock
	return layerSnap{
		pure: c.PureReads, fallback: c.FallbackReads, batched: c.BatchedGets,
		retries: c.Retries + c.Reconnects,
		st:      e.srv.Stats(), m: e.srv.Metrics().Snapshot(),
		dev: e.dev.counts(), net: e.net.counts(),
	}
}

// tracedWindows runs the window twice, each half as long: first untraced
// with the device and listener meters off (the base for the Go runtime
// counts and trace.overhead_ratio), then with client tracing, the
// server's retained spans and both meters on.
func (b *bench) tracedWindows(r *run, ws []*worker, res *result) {
	half := b.window / 2
	e := r.e
	L := &res.layers

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r.window(ws, half, 0, half)
	runtime.ReadMemStats(&ms1)
	untraced := collect(ws, b.wl.gatedPut)
	keyOps := float64(untraced.c.attempted)
	L.add("go.allocs_per_op", ratio(float64(ms1.Mallocs-ms0.Mallocs), keyOps), "count", untraced.c.attempted)
	L.add("go.gc_cycles_per_kop", ratio(float64(ms1.NumGC-ms0.NumGC), keyOps/1000), "count", untraced.c.attempted)

	sampleEvery := max(1, (untraced.calls+traceStoreTarget-1)/traceStoreTarget)
	e.cli.EnableTracing(sampleEvery, 0)
	e.setMetering(true)
	s0 := snapLayers(e)
	r.window(ws, half, 0, half)
	s1 := snapLayers(e)
	e.setMetering(false)
	tr := collect(ws, b.wl.gatedPut)
	res.c = untraced.c
	res.c.merge(tr.c)
	L.add("trace.overhead_ratio", ratio(tr.gatedP50(), untraced.gatedP50()), "ratio", len(tr.gated))
	addSpanMetrics(L, e.cli.Tracer().Dump(0), e.srv.Tracer().Dump(0))
	addCounterMetrics(L, s0, s1, tr)
	res.rep.add("trace_sample_every", float64(sampleEvery), "count", 1)
}

// phase is what the workers did in one window.
type phase struct {
	c          counts
	gets, puts counts
	calls      int
	gated      []uint32
}

func collect(ws []*worker, gatedPut bool) phase {
	var p phase
	for _, w := range ws {
		p.gets.merge(w.gets)
		p.puts.merge(w.puts)
		p.calls += len(w.lat) + w.lost
		for _, s := range w.lat {
			if isPut(s) == gatedPut {
				p.gated = append(p.gated, s&^putBit)
			}
		}
	}
	p.c = p.gets
	p.c.merge(p.puts)
	return p
}

// gatedP50 is the p50 of the gated call, or 0 when too few calls ran.
func (p phase) gatedP50() float64 {
	v, _, ok := percentile(p.gated, 0.5)
	if !ok {
		return 0
	}
	return float64(v)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// addSpanMetrics derives self times from the client's and the server's
// retained traces. Client spans are the program's own sections under
// each call's root span; the server keeps one trace per traced request
// it handled, rooted at its server_<rpc> span.
func addSpanMetrics(L *report, client, server []trace.Trace) {
	self := map[string][]uint64{}
	var unattributed []uint64
	for _, t := range client {
		root, kids := splitRoot(t.Spans)
		if root == nil {
			continue
		}
		unattributed = append(unattributed, selfNS(*root, kids))
		for _, k := range kids {
			self[k.Name] = append(self[k.Name], selfNS(k, childrenOf(t.Spans, k.ID)))
		}
	}
	for _, s := range []struct{ metric, span string }{
		{"tcpkv.client.crc_us", "client_crc"},
		{"tcpkv.client.alloc_rpc_us", "alloc_rpc"},
		{"tcpkv.client.doorbell_write_us", "doorbell_write"},
		{"tcpkv.client.entry_probe_us", "entry_probe"},
		{"tcpkv.client.object_read_us", "object_read"},
		{"tcpkv.client.doorbell_read_us", "doorbell_read"},
		{"tcpkv.client.get_rpc_us", "get_rpc"},
	} {
		L.add(s.metric, meanUS(self[s.span]), "us", len(self[s.span]))
	}
	L.add("tcpkv.client.unattributed_us", meanUS(unattributed), "us", len(unattributed))

	// Server roots per trace ID, in start order, to pair with the client's
	// RPC spans of the same trace.
	roots := map[uint64][]trace.Span{}
	var rpcSelf []uint64
	for _, t := range server {
		root, kids := splitRoot(t.Spans)
		if root == nil {
			continue
		}
		rpcSelf = append(rpcSelf, selfNS(*root, kids))
		roots[t.ID] = append(roots[t.ID], *root)
	}
	L.add("tcpkv.server.rpc_us", meanUS(rpcSelf), "us", len(rpcSelf))
	var gaps []uint64
	for _, t := range client {
		srv := roots[t.ID]
		slices.SortFunc(srv, func(a, b trace.Span) int { return cmp.Compare(a.StartNS, b.StartNS) })
		i := 0
		for _, s := range t.Spans {
			if s.Name != "alloc_rpc" && s.Name != "get_rpc" {
				continue
			}
			if i < len(srv) {
				cd, sd := s.EndNS-s.StartNS, srv[i].EndNS-srv[i].StartNS
				if cd >= sd {
					gaps = append(gaps, cd-sd)
				}
			}
			i++
		}
	}
	L.add("tcpkv.server.transport_gap_us", meanUS(gaps), "us", len(gaps))
}

// splitRoot returns a trace's root span (Parent 0) and its direct children.
func splitRoot(spans []trace.Span) (*trace.Span, []trace.Span) {
	for i := range spans {
		if spans[i].Parent == 0 {
			return &spans[i], childrenOf(spans, spans[i].ID)
		}
	}
	return nil, nil
}

func childrenOf(spans []trace.Span, id uint64) []trace.Span {
	var out []trace.Span
	for _, s := range spans {
		if s.Parent == id && s.ID != id {
			out = append(out, s)
		}
	}
	return out
}

func meanUS(ns []uint64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	return sum / float64(len(ns)) / 1e3
}

// addCounterMetrics derives the per-layer counts from the deltas of the
// client counters, the engine's Stats and histograms, and the device and
// listener meters over the traced phase.
func addCounterMetrics(L *report, s0, s1 layerSnap, p phase) {
	keyOps := float64(p.c.attempted)
	putsOK := float64(p.puts.ok)
	getOps := float64(p.gets.attempted)
	userBytes := putsOK * float64(keyLen+valueLen)
	n := p.c.attempted

	pure, fb := float64(s1.pure-s0.pure), float64(s1.fallback-s0.fallback)
	L.add("tcpkv.client.get_pure_share", ratio(pure, pure+fb), "ratio", int(pure+fb))
	L.add("tcpkv.client.fallback_share", ratio(fb, float64(s1.batched-s0.batched)), "ratio", s1.batched-s0.batched)
	L.add("tcpkv.client.retries", float64(s1.retries-s0.retries), "count", n)

	dn := s1.net.sub(s0.net)
	L.add("net.read_calls_per_op", ratio(float64(dn.reads), keyOps), "count", n)
	L.add("net.write_calls_per_op", ratio(float64(dn.writes), keyOps), "count", n)
	L.add("net.bytes_in_per_op", ratio(float64(dn.bytesIn), keyOps), "B", n)
	L.add("net.bytes_out_per_op", ratio(float64(dn.bytesOut), keyOps), "B", n)
	L.add("net.write_us_per_op", ratio(float64(dn.writeNS)/1e3, keyOps), "us", n)

	hist := func(op string) (count, sumNS float64) {
		a, b := s0.m.MergedOp(op), s1.m.MergedOp(op)
		return float64(b.Count - a.Count), float64(b.SumNS - a.SumNS)
	}
	for _, h := range []struct{ metric, op string }{
		{"store.put_us", "put"}, {"store.get_us", "get"}, {"store.alloc_us", "alloc"}, {"store.lookup_us", "lookup"},
	} {
		c, sum := hist(h.op)
		L.add(h.metric, ratio(sum/1e3, c), "us", int(c))
	}
	_, bgCRC := hist("bg_crc")
	_, bgFlush := hist("bg_flush")
	_, cleanCopy := hist("clean_copy")
	np := p.puts.ok
	st0, st1 := s0.st, s1.st
	L.add("store.bg_crc_us_per_put", ratio(bgCRC/1e3, putsOK), "us", np)
	L.add("store.bg_flush_us_per_put", ratio(bgFlush/1e3, putsOK), "us", np)
	L.add("store.bg_verified_per_put", ratio(float64(st1.BGVerified-st0.BGVerified), putsOK), "ratio", np)
	L.add("store.clean_runs", float64(st1.Cleanings-st0.Cleanings), "count", 1)
	L.add("store.clean_moved_per_put", ratio(float64(st1.CleanMoved-st0.CleanMoved), putsOK), "ratio", np)
	L.add("store.clean_dropped_per_put", ratio(float64(st1.CleanDropped-st0.CleanDropped), putsOK), "ratio", np)
	L.add("store.clean_copy_us_per_put", ratio(cleanCopy/1e3, putsOK), "us", np)
	L.add("store.alloc_failures_per_op", ratio(float64(st1.AllocFailures-st0.AllocFailures), float64(p.puts.attempted)), "ratio", p.puts.attempted)
	rpcGets := st1.Gets - st0.Gets
	L.add("store.get_fast_path_share", ratio(float64(st1.GetFastPath-st0.GetFastPath), float64(rpcGets)), "ratio", rpcGets)

	dd := s1.dev.sub(s0.dev)
	L.add("nvm.flush_bytes_per_user_byte", ratio(float64(dd.flushBytes), userBytes), "ratio", np)
	L.add("nvm.flush_calls_per_put", ratio(float64(dd.flushCalls), putsOK), "count", np)
	L.add("nvm.write_bytes_per_user_byte", ratio(float64(dd.writeBytes), userBytes), "ratio", np)
	L.add("nvm.read_bytes_per_get", ratio(float64(dd.readBytes), getOps), "B", int(getOps))
	L.add("nvm.busy_us_per_op", ratio(float64(dd.busyNS)/1e3, keyOps), "us", n)
}

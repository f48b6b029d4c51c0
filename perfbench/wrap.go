package main

import (
	"net"
	"sync/atomic"
	"time"

	"efactory/internal/nvm"
)

// meteredDevice wraps the emulated NVMM and, while on, counts and times
// every call the server makes on it: engine sections, the background
// verifier and cleaner, and the one-sided channel alike. Off, each call
// costs one atomic load. It forwards ReadPersisted, so recovery over the
// wrapper reads the same post-crash image it would read unwrapped.
type meteredDevice struct {
	*nvm.Memory
	on atomic.Bool

	readBytes  atomic.Uint64
	writeBytes atomic.Uint64
	flushCalls atomic.Uint64
	flushBytes atomic.Uint64 // whole cache lines the flushes covered
	busyNS     atomic.Uint64
}

type deviceCounts struct {
	readBytes, writeBytes, flushCalls, flushBytes, busyNS uint64
}

func (d *meteredDevice) counts() deviceCounts {
	return deviceCounts{
		readBytes:  d.readBytes.Load(),
		writeBytes: d.writeBytes.Load(),
		flushCalls: d.flushCalls.Load(),
		flushBytes: d.flushBytes.Load(),
		busyNS:     d.busyNS.Load(),
	}
}

func (a deviceCounts) sub(b deviceCounts) deviceCounts {
	return deviceCounts{a.readBytes - b.readBytes, a.writeBytes - b.writeBytes,
		a.flushCalls - b.flushCalls, a.flushBytes - b.flushBytes, a.busyNS - b.busyNS}
}

func (d *meteredDevice) busy(t0 time.Time) { d.busyNS.Add(uint64(time.Since(t0))) }

func (d *meteredDevice) Read(off int, dst []byte) {
	if !d.on.Load() {
		d.Memory.Read(off, dst)
		return
	}
	t0 := time.Now()
	d.Memory.Read(off, dst)
	d.busy(t0)
	d.readBytes.Add(uint64(len(dst)))
}

func (d *meteredDevice) Read8(off int) uint64 {
	if !d.on.Load() {
		return d.Memory.Read8(off)
	}
	t0 := time.Now()
	v := d.Memory.Read8(off)
	d.busy(t0)
	d.readBytes.Add(8)
	return v
}

func (d *meteredDevice) Write(off int, src []byte) {
	if !d.on.Load() {
		d.Memory.Write(off, src)
		return
	}
	t0 := time.Now()
	d.Memory.Write(off, src)
	d.busy(t0)
	d.writeBytes.Add(uint64(len(src)))
}

func (d *meteredDevice) Write8(off int, v uint64) {
	if !d.on.Load() {
		d.Memory.Write8(off, v)
		return
	}
	t0 := time.Now()
	d.Memory.Write8(off, v)
	d.busy(t0)
	d.writeBytes.Add(8)
}

func (d *meteredDevice) Flush(off, n int) {
	if !d.on.Load() {
		d.Memory.Flush(off, n)
		return
	}
	t0 := time.Now()
	d.Memory.Flush(off, n)
	d.busy(t0)
	d.flushCalls.Add(1)
	if n > 0 {
		lines := (off+n-1)/nvm.LineSize - off/nvm.LineSize + 1
		d.flushBytes.Add(uint64(lines * nvm.LineSize))
	}
}

func (d *meteredDevice) Zero(off, n int) {
	if !d.on.Load() {
		d.Memory.Zero(off, n)
		return
	}
	t0 := time.Now()
	d.Memory.Zero(off, n)
	d.busy(t0)
}

// meteredListener hands out connections that, while on, count the
// server's socket calls and bytes and time its writes.
type meteredListener struct {
	net.Listener
	st *netStats
}

type netStats struct {
	on       atomic.Bool
	reads    atomic.Uint64
	writes   atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
	writeNS  atomic.Uint64
}

type netCounts struct {
	reads, writes, bytesIn, bytesOut, writeNS uint64
}

func (s *netStats) counts() netCounts {
	return netCounts{s.reads.Load(), s.writes.Load(), s.bytesIn.Load(), s.bytesOut.Load(), s.writeNS.Load()}
}

func (a netCounts) sub(b netCounts) netCounts {
	return netCounts{a.reads - b.reads, a.writes - b.writes, a.bytesIn - b.bytesIn,
		a.bytesOut - b.bytesOut, a.writeNS - b.writeNS}
}

func (l *meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, st: l.st}, nil
}

type meteredConn struct {
	net.Conn
	st *netStats
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.st.on.Load() {
		c.st.reads.Add(1)
		c.st.bytesIn.Add(uint64(n))
	}
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	if !c.st.on.Load() {
		return c.Conn.Write(p)
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNS.Add(uint64(time.Since(t0)))
	c.st.writes.Add(1)
	c.st.bytesOut.Add(uint64(n))
	return n, err
}

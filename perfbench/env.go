package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"efactory/internal/nvm"
	"efactory/internal/tcpkv"
)

// serverConfig is tcpkv.DefaultConfig() (1 shard, 64 MiB pools, BGBatch
// off, cleaning at 15 % free, 200 µs verifier tick) with the hash table
// raised to hold the keyspace: the default 16 384 buckets refuse inserts
// past about 18 k keys.
func serverConfig() tcpkv.Config {
	cfg := tcpkv.DefaultConfig()
	cfg.Buckets = 1 << 18
	return cfg
}

// env is one in-process server on an emulated NVMM device, behind a
// loopback listener, and the one client that drives it.
type env struct {
	cfg    tcpkv.Config
	mem    *nvm.Memory
	dev    *meteredDevice // nil unless metered
	net    *netStats      // nil unless metered
	srv    *tcpkv.Server
	cli    *tcpkv.Client
	served chan error
}

// newEnv builds a fresh device and starts a server and client on it. With
// metered set the device and listener are wrapped (the wrappers start
// off; see setMetering).
func newEnv(cfg tcpkv.Config, metered bool) (*env, error) {
	e := &env{cfg: cfg, mem: nvm.New(cfg.DeviceSize())}
	if metered {
		e.dev = &meteredDevice{Memory: e.mem}
		e.net = &netStats{}
	}
	if err := e.start(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) device() nvm.Device {
	if e.dev != nil {
		return e.dev
	}
	return e.mem
}

// start opens a server over the env's device (recovering whatever it
// holds), serves it on a loopback port and dials the client.
func (e *env) start() error {
	srv, err := tcpkv.NewServer(e.device(), e.cfg)
	if err != nil {
		return err
	}
	return e.serve(srv)
}

func (e *env) serve(srv *tcpkv.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	var l net.Listener = ln
	if e.net != nil {
		l = &meteredListener{Listener: ln, st: e.net}
	}
	e.srv, e.served = srv, make(chan error, 1)
	go func() { e.served <- srv.Serve(l) }()
	cli, err := tcpkv.Dial(ln.Addr().String())
	if err != nil {
		e.stopServer()
		return err
	}
	e.cli = cli
	return nil
}

func (e *env) setMetering(on bool) {
	if e.dev != nil {
		e.dev.on.Store(on)
		e.net.on.Store(on)
	}
}

// stopServer closes the client and server and waits for Serve to return.
func (e *env) stopServer() error {
	if e.cli != nil {
		e.cli.Close()
		e.cli = nil
	}
	e.srv.Close()
	err := <-e.served
	e.srv = nil
	return err
}

// quiesce waits until every shard's durability backlog is empty and no
// cleaning runs.
func (e *env) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		settled := !e.srv.Cleaning()
		st := e.srv.Store()
		for i := 0; settled && i < st.NumShards(); i++ {
			if b, _ := st.Shard(i).DurabilityLag(); b != 0 {
				settled = false
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("server did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
}

// crashRecover stops the server, drops every unflushed cache line of the
// device as a power failure would, and recovers a fresh server over the
// same device. It returns the time NewServer took.
func (e *env) crashRecover(seed uint64) (time.Duration, error) {
	if err := e.stopServer(); err != nil {
		return 0, fmt.Errorf("stop before crash: %w", err)
	}
	e.mem.Crash(seed, 0)
	t0 := time.Now()
	srv, err := tcpkv.NewServer(e.device(), e.cfg)
	took := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	return took, e.serve(srv)
}

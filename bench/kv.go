package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mmdb"
	"mmdb/client"
	"mmdb/internal/server"
	"mmdb/internal/shard"
)

// kvTarget drives the whole stack: closed-loop client.Client connections
// over loopback TCP → internal/server → shard.Router → kvstore.Local →
// engine, all in this process so getrusage covers every layer.
type kvTarget struct {
	sp     spec
	traced bool
	dir    string
	router *shard.Router
	net    *loopback
	pool   []byte
	keys   []byte
	strs   []*stream
	// putsOnly turns every op into a Put of its key: the tail runs with
	// it set, so the log the crash leaves holds exactly tailOps commits.
	putsOnly bool
}

func newKVTarget(sp spec, seed int64, traced bool) *kvTarget {
	return &kvTarget{sp: sp, traced: traced, pool: valuePool(seed, kvValueBytes), keys: renderKeys(sp.keys)}
}

func (t *kvTarget) makeStreams(seed int64) {
	t.strs = make([]*stream, t.sp.clients)
	for c := range t.strs {
		t.strs[c] = zipfStream(seed, c, t.sp.clients, t.sp.keys)
	}
}

func (t *kvTarget) key(id uint32) []byte {
	return t.keys[int(id)*keyBytes:][:keyBytes]
}

var errKeyMissing = errors.New("bench: Get of a preloaded key found nothing")

type kvClient struct {
	t   *kvTarget
	s   *stream
	idx int
	ctx context.Context
}

func (c *kvClient) do(pos uint64) (int, error) {
	i := pos & streamMask
	key := c.t.key(c.s.ids[i])
	cli := c.t.net.clients[c.idx]
	if c.s.kinds[i] == kindGet && !c.t.putsOnly {
		_, ok, err := cli.Get(c.ctx, key)
		if err == nil && !ok {
			err = errKeyMissing
		}
		return kindGet, err
	}
	return kindPut, cli.Put(c.ctx, key, c.t.pool[pos&poolMask:][:kvValueBytes])
}

func (t *kvTarget) client(i int) func(pos uint64) (int, error) {
	return (&kvClient{t: t, s: t.strs[i], idx: i, ctx: context.Background()}).do
}

// open creates the shards with the preload (asynchronous commit) policy
// and puts the server and the clients in front of them.
func (t *kvTarget) open(dir string) error {
	t.dir = dir
	router, _, err := shard.Open(context.Background(), t.sp.config(dir, true, false))
	if err != nil {
		return err
	}
	lb, err := newLoopback(router, t.sp.clients)
	if err != nil {
		return errors.Join(err, router.Close())
	}
	t.router, t.net = router, lb
	return nil
}

// preload stores every key once through the clients, each loading its
// own residue class, so set-up uses the write path the timed phase uses.
func (t *kvTarget) preload() error {
	errs := make([]error, t.sp.clients)
	var wg sync.WaitGroup
	for c := 0; c < t.sp.clients; c++ {
		wg.Add(1)
		// goleak:joins wg.Wait below
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for id := c; id < t.sp.keys; id += t.sp.clients {
				if err := t.net.clients[c].Put(ctx, t.key(uint32(id)), t.pool[id&poolMask:][:kvValueBytes]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (t *kvTarget) checkpoint() error { return t.router.Checkpoint(context.Background()) }

func (t *kvTarget) reopen() error {
	if err := t.close(); err != nil {
		return err
	}
	_, err := t.recover()
	return err
}

func (t *kvTarget) engines() []*mmdb.DB {
	dbs := make([]*mmdb.DB, t.router.NumShards())
	for i := range dbs {
		dbs[i] = t.router.Shard(i).DB()
	}
	return dbs
}

func (t *kvTarget) startCheckpoints() {
	for _, db := range t.engines() {
		db.StartCheckpointLoop()
	}
}

func (t *kvTarget) stopCheckpoints() {
	for _, db := range t.engines() {
		db.StopCheckpointLoop()
	}
}

func (t *kvTarget) beginTail() { t.putsOnly = true }

// crash takes the network down cleanly, then drops every shard's
// volatile state, and the references to both, so their memory can be
// collected before the recovery.
func (t *kvTarget) crash() error {
	lb, router := t.net, t.router
	t.net, t.router = nil, nil
	return errors.Join(lb.shutdown(), router.Crash())
}

// recover is shard.Open on the crashed directories — backup load, log
// replay and the index rebuild of every shard, concurrently — and then
// the network on top, which is not part of the recovery time.
func (t *kvTarget) recover() (recoveryPhases, error) {
	began := time.Now()
	router, reps, err := shard.Open(context.Background(), t.sp.config(t.dir, false, t.traced))
	if err != nil {
		return recoveryPhases{}, err
	}
	total := time.Since(began)
	var ph recoveryPhases
	for _, rep := range reps {
		ph.merge(phasesOf(rep))
	}
	ph.total = total
	lb, err := newLoopback(router, t.sp.clients)
	if err != nil {
		return ph, errors.Join(err, router.Close())
	}
	t.router, t.net = router, lb
	return ph, nil
}

func (t *kvTarget) verify(o oracle) (checked, bad int, err error) {
	ctx := context.Background()
	for id, p := range o {
		if p == 0 {
			continue
		}
		val, ok, err := t.router.Get(ctx, t.key(uint32(id)))
		if err != nil {
			return checked, bad, fmt.Errorf("verify key %d: %w", id, err)
		}
		checked++
		if !ok || !bytes.Equal(val, t.pool[uint64(p-1)&poolMask:][:kvValueBytes]) {
			bad++
		}
	}
	return checked, bad, nil
}

func (t *kvTarget) record(o oracle, client int, from, to uint64) {
	s := t.strs[client]
	for p := from; p < to; p++ {
		if t.putsOnly || s.kinds[p&streamMask] == kindPut {
			o[s.ids[p&streamMask]] = uint32(p + 1)
		}
	}
}

func (t *kvTarget) oracleSize() int { return t.sp.keys }

// routedOps reads the router's per-shard routed-op counters.
func (t *kvTarget) routedOps() []float64 {
	var ops []float64
	for _, pt := range t.router.Registry().Gather() {
		if strings.HasPrefix(pt.Name, "mmdb_shard_") && strings.HasSuffix(pt.Name, "_ops_total") {
			ops = append(ops, pt.Value)
		}
	}
	return ops
}

func (t *kvTarget) wire() wireCounts { return t.net.wire() }

func (t *kvTarget) close() error {
	if t.router == nil {
		return nil
	}
	err := t.net.shutdown()
	return errors.Join(err, t.router.Close())
}

// loopback is a server on a loopback TCP port with n clients dialled in.
type loopback struct {
	ln       net.Listener
	srv      *server.Server
	served   chan struct{}
	clients  []*client.Client
	conns    []*countingConn
	shutOnce sync.Once
	shutErr  error
}

func newLoopback(router *shard.Router, n int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{ln: ln, srv: server.New(router), served: make(chan struct{})}
	// goleak:joins shutdown receives on served after srv.Shutdown
	go func() {
		defer close(lb.served)
		_ = lb.srv.Serve(ln) // always returns the listener-closed error after Shutdown
	}()
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, errors.Join(err, lb.shutdown())
		}
		cc := &countingConn{Conn: conn}
		lb.conns = append(lb.conns, cc)
		lb.clients = append(lb.clients, client.New(cc))
	}
	return lb, nil
}

// shutdown closes the clients, stops the server and waits for all of
// their goroutines. Safe to call twice.
func (lb *loopback) shutdown() error {
	lb.shutOnce.Do(func() {
		errs := make([]error, len(lb.clients))
		for i, c := range lb.clients {
			errs[i] = c.Close()
		}
		lb.srv.Shutdown()
		// Shutdown closes the listener only once Serve has registered it;
		// closing it here too covers a shutdown that wins that race.
		_ = lb.ln.Close()
		<-lb.served
		lb.shutErr = errors.Join(errs...)
	})
	return lb.shutErr
}

func (lb *loopback) wire() wireCounts {
	var w wireCounts
	for _, c := range lb.conns {
		w.bytes += c.bytes.Load()
		w.writes += c.writes.Load()
		w.reads += c.reads.Load()
	}
	return w
}

// wireCounts is what the clients' connections carried: the transport's
// batching seen from outside (syscall-level reads and writes per op).
type wireCounts struct {
	bytes, writes, reads uint64
}

func (w wireCounts) sub(o wireCounts) wireCounts {
	return wireCounts{w.bytes - o.bytes, w.writes - o.writes, w.reads - o.reads}
}

// countingConn counts the traffic of the net.Conn handed to client.New.
type countingConn struct {
	net.Conn
	bytes, writes, reads atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	c.bytes.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes.Add(1)
	c.bytes.Add(uint64(n))
	return n, err
}

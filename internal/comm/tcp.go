package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"github.com/midas-hpc/midas/internal/obs"
)

// TCP transport: a world of separate OS processes connected by a full
// mesh of TCP connections. Bootstrap is a rendezvous at rank 0:
//
//  1. every rank listens on its own ephemeral port;
//  2. non-zero ranks dial rank 0's well-known address and register
//     their listen address; rank 0 assigns ranks in registration order
//     and replies with the full address table;
//  3. each pair (i, j) with i < j is connected once: i dials j, sends a
//     hello frame with its rank, and both sides start a reader pump
//     into the shared inbox.
//
// Frames on the wire: sender rank is implied by the connection; each
// message is [ctx u64][tag i64][seq u64][ts f64][len u32][payload].
//
// Resilience (docs/FAULTS.md): every handshake and data write runs
// under a deadline (TCPOptions.ConnectTimeout / IOTimeout). A failed
// write closes the connection and retries with exponential backoff +
// jitter, re-establishing the link first — the lower rank of the pair
// redials, the higher rank's persistent accept loop admits the
// returning peer. Each rank keeps its listener open for the life of
// the transport for exactly this reason. Retransmitted frames make
// delivery at-least-once, so the receive path dedups by per-stream
// sequence number (the same reassembler the fault wrapper uses).
// Retries exhausted escalate as a structured *FaultError carrying the
// underlying I/O error.

const tcpMagic = 0x4d494441 // "MIDA"

const tcpHeaderLen = 36

// TCPOptions tunes the TCP transport's deadlines and retry policy.
// The zero value means "all defaults" (see the accessors below), so
// callers set only what they need.
type TCPOptions struct {
	ConnectTimeout time.Duration // rendezvous, handshake, and (re)dial budget (default 10s)
	IOTimeout      time.Duration // per-frame write deadline (default 30s; <0 disables)
	MaxRetries     int           // send retries after the first failure (default 4)
	BackoffBase    time.Duration // first retry backoff (default 25ms), doubles per retry
	BackoffMax     time.Duration // backoff cap (default 2s)
	Fault          *FaultSpec    // optional chaos schedule injected over the wire
}

// DefaultTCPOptions returns the zero options — every knob at its
// documented default.
func DefaultTCPOptions() TCPOptions { return TCPOptions{} }

func (o TCPOptions) connectTimeout() time.Duration {
	if o.ConnectTimeout > 0 {
		return o.ConnectTimeout
	}
	return 10 * time.Second
}

func (o TCPOptions) ioTimeout() time.Duration {
	if o.IOTimeout != 0 {
		return o.IOTimeout
	}
	return 30 * time.Second
}

func (o TCPOptions) maxRetries() int {
	if o.MaxRetries > 0 {
		return o.MaxRetries
	}
	return 4
}

func (o TCPOptions) backoffBase() time.Duration {
	if o.BackoffBase > 0 {
		return o.BackoffBase
	}
	return 25 * time.Millisecond
}

func (o TCPOptions) backoffMax() time.Duration {
	if o.BackoffMax > 0 {
		return o.BackoffMax
	}
	return 2 * time.Second
}

// ConnectTCP joins (or hosts) a TCP world with default options. rank 0
// must be started with rootAddr as its own listen address
// ("host:port"); other ranks pass the same rootAddr to find it. size
// is the total number of ranks and must agree across processes. The
// call blocks until the whole world is connected.
func ConnectTCP(rank, size int, rootAddr string, model CostModel) (*Comm, error) {
	return ConnectTCPOpts(rank, size, rootAddr, model, DefaultTCPOptions())
}

// ConnectTCPOpts is ConnectTCP with explicit deadline/retry options
// and (optionally) a fault-injection schedule wrapped over the wire.
// All ranks must pass the same Fault spec or none.
func ConnectTCPOpts(rank, size int, rootAddr string, model CostModel, opts TCPOptions) (*Comm, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: bad rank/size %d/%d", rank, size)
	}
	var ln net.Listener
	var err error
	if rank == 0 {
		ln, err = net.Listen("tcp", rootAddr)
	} else {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, fmt.Errorf("comm: listen: %w", err)
	}
	addrs := make([]string, size)
	addrs[rank] = ln.Addr().String()
	hsDeadline := time.Now().Add(opts.connectTimeout())

	if rank == 0 {
		// Collect registrations, then send everyone the table.
		conns := make([]net.Conn, size)
		for i := 1; i < size; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return nil, fmt.Errorf("comm: rendezvous accept: %w", err)
			}
			conn.SetDeadline(hsDeadline)
			r, addr, err := readRegistration(conn)
			if err != nil {
				return nil, fmt.Errorf("comm: registration: %w", err)
			}
			// Ranks may register out of order; index by claimed rank.
			if r <= 0 || r >= size || conns[r] != nil {
				return nil, fmt.Errorf("comm: bad or duplicate registration for rank %d", r)
			}
			conns[r] = conn
			addrs[r] = addr
		}
		for r := 1; r < size; r++ {
			if err := writeAddrTable(conns[r], addrs); err != nil {
				return nil, fmt.Errorf("comm: address table to rank %d: %w", r, err)
			}
			conns[r].Close()
		}
	} else {
		conn, err := dialRetry(rootAddr, opts.connectTimeout())
		if err != nil {
			return nil, fmt.Errorf("comm: rendezvous dial: %w", err)
		}
		conn.SetDeadline(hsDeadline)
		if err := writeRegistration(conn, rank, addrs[rank]); err != nil {
			return nil, err
		}
		addrs, err = readAddrTable(conn, size)
		if err != nil {
			return nil, err
		}
		conn.Close()
	}

	t := &tcpTransport{
		inbox: newInbox(),
		rank:  rank,
		addrs: addrs,
		opts:  opts,
		ln:    ln,
		conns: make([]net.Conn, size),
		seen:  make([]bool, size),
		wmu:   make([]sync.Mutex, size),
		ra:    newReassembler(),
	}
	t.cond = sync.NewCond(&t.mu)
	t.managedSeq = opts.Fault != nil && opts.Fault.Active()
	if !t.managedSeq {
		t.seqOut = make(map[streamKey]uint64)
	}
	// The accept loop runs for the transport's lifetime so peers can
	// reconnect after a connection failure, not just during bootstrap.
	go t.acceptLoop()
	// Full-mesh connect: i dials j for i < j; everyone accepts from
	// lower ranks via the accept loop.
	for j := rank + 1; j < size; j++ {
		if _, err := t.dialPeer(j, opts.connectTimeout()); err != nil {
			return nil, fmt.Errorf("comm: dial rank %d: %w", j, err)
		}
	}
	if err := t.waitConnected(hsDeadline); err != nil {
		return nil, fmt.Errorf("comm: mesh accept: %w", err)
	}

	clock := &Clock{model: model}
	var tr transport = t
	if t.managedSeq {
		tr = newFaultEndpoint(t, rank, *opts.Fault, clock)
	}
	group := make([]int, size)
	for i := range group {
		group[i] = i
	}
	return &Comm{
		transport: tr, ctx: 0, rank: rank, group: group,
		clock: clock, stats: &Stats{}, phase: new(string),
	}, nil
}

type tcpTransport struct {
	inbox *inbox
	rank  int
	addrs []string
	opts  TCPOptions
	ln    net.Listener
	rec   *obs.Recorder // send-retry counters; nil-safe

	mu     sync.Mutex
	cond   *sync.Cond
	conns  []net.Conn
	seen   []bool // peer ever connected; the bootstrap barrier keys on this, not on conns staying live
	closed bool

	wmu []sync.Mutex // per-peer write serialization (send path vs held-message flush)

	// managedSeq: an outer fault wrapper owns sequence numbering; the
	// transport passes seq through untouched. Otherwise the transport
	// stamps outgoing frames itself so the receive path can dedup
	// at-least-once redeliveries.
	managedSeq bool
	seqOut     map[streamKey]uint64
	ra         *reassembler
}

func (t *tcpTransport) setRecorder(r *obs.Recorder) { t.rec = r }

// acceptLoop admits peers for the life of the transport: the initial
// mesh (higher ranks accept lower ranks) and any reconnection after a
// failed link. A new connection from a peer replaces the old one.
func (t *tcpTransport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed: transport shut down
		}
		go func() {
			conn.SetReadDeadline(time.Now().Add(t.opts.connectTimeout()))
			peer, err := readHello(conn)
			conn.SetReadDeadline(time.Time{})
			if err != nil || peer < 0 || peer >= len(t.conns) {
				conn.Close()
				return
			}
			t.install(peer, conn)
		}()
	}
}

// install registers conn as the live link to peer (replacing any
// previous one) and starts its reader pump.
func (t *tcpTransport) install(peer int, conn net.Conn) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return
	}
	if old := t.conns[peer]; old != nil {
		// A peer redials only after retiring its end, so the old link
		// ends in EOF once its pump has drained the frames still buffered
		// in it; closing it here would drop them. The deadline bounds a
		// link whose peer vanished without closing it.
		old.SetReadDeadline(time.Now().Add(t.opts.connectTimeout()))
	}
	t.conns[peer] = conn
	t.seen[peer] = true
	t.cond.Broadcast()
	t.mu.Unlock()
	go t.pump(peer, conn)
}

// dialPeer establishes (or re-establishes) the outgoing link to a
// higher-ranked peer.
func (t *tcpTransport) dialPeer(peer int, timeout time.Duration) (net.Conn, error) {
	conn, err := dialRetry(t.addrs[peer], timeout)
	if err != nil {
		return nil, err
	}
	conn.SetWriteDeadline(time.Now().Add(t.opts.connectTimeout()))
	if err := writeHello(conn, t.rank); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Time{})
	t.install(peer, conn)
	return conn, nil
}

// waitConnected blocks until every peer link has been up at least once
// (bootstrap barrier). It keys on seen, not conns: a fast peer may
// finish its program and close while we are still here, which retires
// its conn — that is a completed link, not a missing one, and recv
// still drains whatever its pump delivered.
func (t *tcpTransport) waitConnected(deadline time.Time) error {
	timeout := time.AfterFunc(time.Until(deadline), func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer timeout.Stop()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		missing := -1
		for p, ok := range t.seen {
			if p != t.rank && !ok {
				missing = p
				break
			}
		}
		if missing < 0 {
			return nil
		}
		if t.closed {
			return ErrClosed
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no connection from rank %d within %v", missing, t.opts.connectTimeout())
		}
		t.cond.Wait()
	}
}

// connFor returns the live connection to peer, re-establishing it if
// necessary: the lower rank of a pair redials, the higher rank waits
// for the peer to redial into the accept loop.
func (t *tcpTransport) connFor(peer int) (net.Conn, error) {
	t.mu.Lock()
	if conn := t.conns[peer]; conn != nil || t.closed {
		t.mu.Unlock()
		if conn == nil {
			return nil, ErrClosed
		}
		return conn, nil
	}
	t.mu.Unlock()
	if t.rank < peer {
		return t.dialPeer(peer, t.opts.connectTimeout())
	}
	// Higher rank: the peer dials us. Wait for the accept loop.
	deadline := time.Now().Add(t.opts.connectTimeout())
	timeout := time.AfterFunc(t.opts.connectTimeout(), func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer timeout.Stop()
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.conns[peer] == nil {
		if t.closed {
			return nil, ErrClosed
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("rank %d did not reconnect within %v", peer, t.opts.connectTimeout())
		}
		t.cond.Wait()
	}
	return t.conns[peer], nil
}

// dropConn retires a connection after an I/O error (idempotent: only
// the currently-installed conn is dropped, so a racing reconnect is
// not clobbered).
func (t *tcpTransport) dropConn(peer int, conn net.Conn) {
	conn.Close()
	t.mu.Lock()
	if t.conns[peer] == conn {
		t.conns[peer] = nil
	}
	t.mu.Unlock()
}

func encodeFrame(m message) []byte {
	buf := make([]byte, tcpHeaderLen+len(m.data))
	binary.LittleEndian.PutUint64(buf[0:], m.ctx)
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(m.tag)))
	binary.LittleEndian.PutUint64(buf[16:], m.seq)
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(m.ts))
	binary.LittleEndian.PutUint32(buf[32:], uint32(len(m.data)))
	copy(buf[tcpHeaderLen:], m.data)
	return buf
}

func (t *tcpTransport) send(worldDst int, m message) {
	if worldDst == t.rank {
		t.inbox.put(t.rank, m)
		return
	}
	if !t.managedSeq {
		key := streamKey{worldDst, m.ctx}
		m.seq = t.seqOut[key]
		t.seqOut[key] = m.seq + 1
	}
	// One frame, one Write: a retried frame never interleaves with a
	// concurrent flush to the same peer, and the receiver's sequence
	// filter absorbs the duplicate if the first write half-succeeded.
	frame := encodeFrame(m)
	var lastErr error
	for attempt := 0; ; attempt++ {
		conn, err := t.connFor(worldDst)
		if err == nil {
			t.wmu[worldDst].Lock()
			if d := t.opts.ioTimeout(); d > 0 {
				conn.SetWriteDeadline(time.Now().Add(d))
			}
			_, err = conn.Write(frame)
			t.wmu[worldDst].Unlock()
			if err == nil {
				return
			}
			t.dropConn(worldDst, conn)
		}
		lastErr = err
		if attempt >= t.opts.maxRetries() {
			panic(&FaultError{Op: "send", From: t.rank, To: worldDst, Attempts: attempt + 1, Err: lastErr})
		}
		backoff := t.opts.backoffBase() << uint(attempt)
		if max := t.opts.backoffMax(); backoff > max || backoff <= 0 {
			backoff = max
		}
		// ±25% deterministic-ish jitter from the attempt counter; the
		// point is decorrelating peers, not reproducibility (real wall
		// time is already non-reproducible here).
		backoff += backoff * time.Duration(attempt%3) / 8
		t.rec.Add(obs.SendRetries, 1)
		t.rec.Add(obs.BackoffNanos, backoff.Nanoseconds())
		t.rec.Observe(obs.HistRetryBackoff, backoff.Seconds())
		time.Sleep(backoff)
	}
}

func (t *tcpTransport) recv(worldSrc int, ctx uint64) message {
	if t.managedSeq {
		// The outer fault wrapper dedups; pass raw deliveries through.
		return t.inbox.take(worldSrc, ctx)
	}
	return t.ra.next(streamKey{worldSrc, ctx}, func() message {
		return t.inbox.take(worldSrc, ctx)
	})
}

func (t *tcpTransport) close(int) {
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
	t.mu.Unlock()
	t.ln.Close()
	t.inbox.shutdown()
}

func (t *tcpTransport) abort() {
	// One process per rank: aborting tears down only this endpoint;
	// remote peers see the dead connections and fail their own sends.
	t.close(t.rank)
}

// pump reads frames from one peer connection into the inbox until the
// connection dies; a reconnect installs a fresh pump.
func (t *tcpTransport) pump(peer int, conn net.Conn) {
	defer t.dropConn(peer, conn)
	br := bufio.NewReaderSize(conn, 1<<16)
	var hdr [tcpHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return // connection closed or broken; sender side retries
		}
		m := message{
			ctx: binary.LittleEndian.Uint64(hdr[0:]),
			tag: int(int64(binary.LittleEndian.Uint64(hdr[8:]))),
			seq: binary.LittleEndian.Uint64(hdr[16:]),
			ts:  math.Float64frombits(binary.LittleEndian.Uint64(hdr[24:])),
		}
		n := binary.LittleEndian.Uint32(hdr[32:])
		if n > 0 {
			m.data = make([]byte, n)
			if _, err := io.ReadFull(br, m.data); err != nil {
				return
			}
		}
		t.inbox.put(peer, m)
	}
}

func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func writeHello(conn net.Conn, rank int) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], tcpMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(rank))
	_, err := conn.Write(hdr[:])
	return err
}

func readHello(conn net.Conn) (int, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != tcpMagic {
		return 0, fmt.Errorf("bad hello magic")
	}
	return int(binary.LittleEndian.Uint32(hdr[4:])), nil
}

func writeRegistration(conn net.Conn, rank int, addr string) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], tcpMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(rank))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(addr)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write([]byte(addr))
	return err
}

func readRegistration(conn net.Conn) (rank int, addr string, err error) {
	var hdr [12]byte
	if _, err = io.ReadFull(conn, hdr[:]); err != nil {
		return 0, "", err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != tcpMagic {
		return 0, "", fmt.Errorf("bad magic")
	}
	rank = int(binary.LittleEndian.Uint32(hdr[4:]))
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > 1024 {
		return 0, "", fmt.Errorf("oversized address")
	}
	buf := make([]byte, n)
	if _, err = io.ReadFull(conn, buf); err != nil {
		return 0, "", err
	}
	return rank, string(buf), nil
}

func writeAddrTable(conn net.Conn, addrs []string) error {
	for _, a := range addrs {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(a)))
		if _, err := conn.Write(l[:]); err != nil {
			return err
		}
		if _, err := conn.Write([]byte(a)); err != nil {
			return err
		}
	}
	return nil
}

func readAddrTable(conn net.Conn, size int) ([]string, error) {
	addrs := make([]string, size)
	for i := range addrs {
		var l [4]byte
		if _, err := io.ReadFull(conn, l[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(l[:])
		if n > 1024 {
			return nil, fmt.Errorf("comm: oversized address entry")
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return nil, err
		}
		addrs[i] = string(buf)
	}
	return addrs, nil
}

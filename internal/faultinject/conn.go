package faultinject

// Connection-level chaos for the binary wire protocol: the stream twin
// of the HTTP Transport/Middleware pair. HTTP faults map onto whole
// request/response exchanges; a wire connection is one long-lived byte
// stream, so the faults land on the stream's primitive operations
// instead, reusing the same probability table:
//
//   - ErrorProb   closes a connection the moment it is accepted — the
//     client's handshake dies, modelling refusal at the edge.
//   - ResetProb   kills the connection inside a read — frames in flight
//     from the peer vanish, reads fail mid-frame.
//   - DropResponseProb swallows a whole write (the caller believes it
//     was sent) and then kills the connection. On a server this loses
//     an ack AFTER the observes were applied — the dangerous case whose
//     blind resend only sequenced dedup makes safe.
//   - TruncateProb delivers half of a write, then kills the connection:
//     the peer decodes a truncated frame and must reject it (CRC or
//     length), never act on a prefix.
//
// All decisions come from the listener's single seeded dice, in
// accept/read/write order, so a serial client sees a reproducible fault
// schedule across its reconnections.

import (
	"net"
	"time"
)

// Listener wraps a net.Listener in connection-level chaos. Accepted
// connections share the listener's dice and tallies.
type Listener struct {
	net.Listener
	cfg      Config
	d        *dice
	injected counts
}

// NewListener wraps ln. It panics on an invalid config, like the HTTP
// chaos constructors — chaos belongs to tests and explicit flags.
func NewListener(cfg Config, ln net.Listener) *Listener {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Listener{Listener: ln, cfg: cfg.withDefaults(), d: newDice(cfg.Seed)}
}

// Injected returns the fault tallies so far.
func (l *Listener) Injected() Tally { return l.injected.snapshot() }

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.d.roll(l.cfg.ErrorProb) {
		// Close but still hand the dead conn to the server: its first
		// read fails immediately, exactly like a peer that vanished
		// between accept and handshake.
		l.injected.add(&l.injected.t.Errors)
		conn.Close()
		return conn, nil
	}
	return &chaosConn{Conn: conn, l: l}, nil
}

// chaosConn injects stream faults into one accepted connection. After
// any injected fault the connection is dead: the underlying conn is
// closed and every further operation fails, as it would on a real cut.
type chaosConn struct {
	net.Conn
	l    *Listener
	dead bool
}

func (c *chaosConn) Read(p []byte) (int, error) {
	if c.dead {
		return 0, errInjected("read from reset connection")
	}
	if c.l.d.roll(c.l.cfg.LatencyProb) {
		time.Sleep(c.l.cfg.Latency)
	}
	if c.l.d.roll(c.l.cfg.ResetProb) {
		c.l.injected.add(&c.l.injected.t.Resets)
		c.dead = true
		c.Conn.Close()
		return 0, errInjected("connection reset mid-read")
	}
	return c.Conn.Read(p)
}

func (c *chaosConn) Write(p []byte) (int, error) {
	if c.dead {
		return 0, errInjected("write to reset connection")
	}
	if c.l.d.roll(c.l.cfg.DropResponseProb) {
		// The write "succeeds" but nothing reaches the peer, and the
		// connection dies behind it: a reply lost after the commit point.
		c.l.injected.add(&c.l.injected.t.Drops)
		c.dead = true
		c.Conn.Close()
		return len(p), nil
	}
	if c.l.d.roll(c.l.cfg.TruncateProb) {
		c.l.injected.add(&c.l.injected.t.Truncates)
		c.dead = true
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return n, errInjected("write truncated mid-frame")
	}
	return c.Conn.Write(p)
}

package transport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/xdev"
)

// FaultPlan describes deterministic, seeded faults a Faulty transport
// injects into its connections. Byte thresholds are jittered per
// connection (±25%, derived from Seed and the order connections are
// made) so repeated runs with the same seed fail at the same points
// while different seeds explore different interleavings.
//
// Byte faults apply to the connections Dial returns and Listen's
// listener accepts alike, on the wrapping side's writes and reads, so
// wrapping one rank's transport faults exactly what that rank writes
// and reads, whichever side dialed. Refusals apply to Dial.
type FaultPlan struct {
	// Seed drives the per-connection threshold jitter.
	Seed int64
	// DialRefusals refuses the first K Dial attempts per address
	// (connection-refused), exercising dial retry/backoff paths.
	DialRefusals int
	// ResetAfterBytes closes the connection with an error once roughly
	// N bytes have been written through it (a mid-stream RST). 0
	// disables.
	ResetAfterBytes int64
	// DropAfterBytes silently discards everything written after
	// roughly N bytes — the connection looks healthy to the writer but
	// the peer never sees another byte (a one-way partition). 0
	// disables.
	DropAfterBytes int64
	// CorruptAfterBytes flips the low bit of the first byte of every
	// write once roughly N bytes have passed — silent wire corruption
	// for integrity-check tests. 0 disables.
	CorruptAfterBytes int64
	// StallWrites and StallReads delay every write/read by the given
	// duration (slow or wedged links).
	StallWrites time.Duration
	StallReads  time.Duration
}

// Faulty wraps a transport with the fault plan. It satisfies
// xdev.Transport, so it slots under niodev in place of TCP, InProc or
// Shaped fabrics.
type Faulty struct {
	inner xdev.Transport
	plan  FaultPlan

	mu      sync.Mutex
	dials   map[string]int
	connSeq int64
}

var _ xdev.Transport = (*Faulty)(nil)

// NewFaulty wraps inner with the given fault plan.
func NewFaulty(inner xdev.Transport, plan FaultPlan) *Faulty {
	return &Faulty{inner: inner, plan: plan, dials: make(map[string]int)}
}

// Dials reports how many Dial attempts (refused or not) were made for
// addr.
func (f *Faulty) Dials(addr string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials[addr]
}

// Listen listens through the inner transport; the connections it
// accepts carry the plan's byte-count faults.
func (f *Faulty) Listen(addr string) (net.Listener, error) {
	l, err := f.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return faultListener{l, f}, nil
}

type faultListener struct {
	net.Listener
	f *Faulty
}

func (l faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.f.wrap(conn, l.f.nextSeq()), nil
}

// Dial refuses the first DialRefusals attempts per address, then dials
// through the inner transport and wraps the connection with the plan's
// byte-count faults.
func (f *Faulty) Dial(addr string) (net.Conn, error) {
	f.mu.Lock()
	f.dials[addr]++
	attempt := f.dials[addr]
	f.mu.Unlock()
	if attempt <= f.plan.DialRefusals {
		return nil, fmt.Errorf("faulty: connection refused (planned, attempt %d/%d) to %q",
			attempt, f.plan.DialRefusals, addr)
	}
	conn, err := f.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return f.wrap(conn, f.nextSeq()), nil
}

// nextSeq numbers the connections the plan wraps, in the order they are
// made; the number seeds each one's threshold jitter.
func (f *Faulty) nextSeq() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.connSeq++
	return f.connSeq - 1
}

// jitter scales base by a deterministic factor in [0.75, 1.25] derived
// from the plan seed and the connection's order.
func (f *Faulty) jitter(base int64, seq int64) int64 {
	if base <= 0 {
		return -1
	}
	rng := rand.New(rand.NewSource(f.plan.Seed*1_000_003 + seq + 1))
	factor := 0.75 + 0.5*rng.Float64()
	v := int64(float64(base) * factor)
	if v < 1 {
		v = 1
	}
	return v
}

func (f *Faulty) wrap(conn net.Conn, seq int64) net.Conn {
	return &faultConn{
		Conn:      conn,
		resetAt:   f.jitter(f.plan.ResetAfterBytes, seq),
		dropAt:    f.jitter(f.plan.DropAfterBytes, seq),
		corruptAt: f.jitter(f.plan.CorruptAfterBytes, seq),
		stallW:    f.plan.StallWrites,
		stallR:    f.plan.StallReads,
	}
}

// faultConn applies byte-count faults to one connection.
// Thresholds < 0 are disabled.
type faultConn struct {
	net.Conn
	resetAt   int64
	dropAt    int64
	corruptAt int64
	stallW    time.Duration
	stallR    time.Duration
	written   atomic.Int64
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.stallW > 0 {
		time.Sleep(c.stallW)
	}
	n := c.written.Load()
	if c.resetAt >= 0 && n >= c.resetAt {
		c.Conn.Close()
		return 0, fmt.Errorf("faulty: connection reset (planned, after %d bytes)", n)
	}
	if c.dropAt >= 0 && n >= c.dropAt {
		// Silent partition: pretend the write succeeded.
		c.written.Add(int64(len(p)))
		return len(p), nil
	}
	// A write crossing the reset threshold is truncated at the cut:
	// the peer sees a torn frame, then the connection dies — the
	// classic mid-stream RST. Without the cut a single large payload
	// write would be delivered whole before the reset fired.
	reset := false
	if c.resetAt >= 0 && n+int64(len(p)) > c.resetAt {
		p = p[:c.resetAt-n]
		reset = true
	}
	if c.corruptAt >= 0 && n >= c.corruptAt && len(p) > 0 {
		q := make([]byte, len(p))
		copy(q, p)
		q[0] ^= 0x01
		p = q
	}
	written, err := c.Conn.Write(p)
	c.written.Add(int64(written))
	if reset {
		c.Conn.Close()
		return written, fmt.Errorf("faulty: connection reset (planned, after %d bytes)", c.written.Load())
	}
	return written, err
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.stallR > 0 {
		time.Sleep(c.stallR)
	}
	return c.Conn.Read(p)
}

package transport

import (
	"io"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// expectWake caps how many bytes of an announced payload pile up in
// the socket before the reader is woken. A reader that drains the
// socket faster than its peer fills it otherwise sleeps and is woken
// again every few segments — 4.7 times per MiB between two processes
// on a 2-vCPU guest, where each wake-up is an inter-processor interrupt
// whose latency the host decides — and the op time follows the host's
// mood. Waking per 256 KiB keeps the copy-out overlapped with the
// sender's copy-in, which waiting for the whole payload would not.
// A small frame on a hot connection avoids the same wake-up by polling
// (pollWindow). Measured in DESIGN.md §7.
const expectWake = 256 << 10

// pollWindow is both the gate and the length of a poll. A connection is
// hot when the gap between its last two reads that returned data was
// under it, and a read that finds a hot connection's socket empty tries
// it again, yielding in between, for up to this long before it parks.
// The bounds: an 8 B round trip between two processes on one host is
// 8–15 µs, so a ping-pong's reply lands well inside the window; a
// rendezvous payload follows its RTS by about 140 µs (the sender
// checksums the payload in between), so that connection stays cold and
// its reader never takes a CPU the sender needs. A poll that ends empty
// costs one window once: the arrival that ends the park comes after a
// longer gap and turns the connection cold. DESIGN.md §7, "Waiting".
const pollWindow = 50 * time.Microsecond

// missBackoff caps the number of hot reads that park without polling
// after polls that found nothing. A miss doubles that number and a poll
// that finds data clears it. A miss means the peer answers slower than
// the gate said, as when it shares this CPU: then each poll would burn a
// whole window that the peer needed to answer. At the cap a connection
// whose polls always miss wastes one window per 1024 reads, under 0.1 µs
// a read, and one that recovers polls again within 1024 reads.
const missBackoff = 1 << 10

// poller is the process's one polling token: however many peers a job
// has, at most one reader polls at a time, so at most one P spins.
// parked counts the process's readers that may be waiting in the
// network poller. A reader polls only while it is zero: the scheduler
// consults the network poller only once its run queues are empty, and a
// poller that yields keeps them full, so on one P it would hold back
// every parked reader's wake-up until its window ended.
var (
	poller atomic.Bool
	parked atomic.Int32
)

// tcpListener hands out connections that understand Expect.
type tcpListener struct{ net.Listener }

func (l tcpListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return withExpect(c), nil
}

// withExpect wraps a TCP connection, dialed or accepted, in a tcpConn;
// anything else is returned as it is.
func withExpect(c net.Conn) net.Conn {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return c
	}
	t := &tcpConn{TCPConn: tc, rc: rc, lowat: 1}
	if canPoll {
		t.try = t.tryRead
	}
	return t
}

// tcpConn is a TCP connection whose reader can announce a bulk payload
// and, between small frames arriving close together, polls its socket
// instead of parking; everything else is *net.TCPConn's.
type tcpConn struct {
	*net.TCPConn
	rc     syscall.RawConn
	expect int // announced bytes not yet read
	lowat  int // the socket's current receive low-water mark; 0 once it refused one

	// last is when a read last returned data, and hot says the gap
	// before that was under pollWindow. skip is how many more hot reads
	// park without polling, and backoff what the last miss set it to
	// (missBackoff). try is tryRead as a method value, made once so a
	// poll allocates nothing (nil where the platform cannot poll); it
	// reads into buf and leaves the outcome in n and err.
	last          time.Time
	hot           bool
	skip, backoff int
	try           func(fd uintptr) bool
	buf           []byte
	n             int
	err           error
}

// Expect announces that the next n bytes of the stream are one payload
// the peer is already writing, so the reader need not be woken for each
// segment of it: until they have been read, a Read that finds the
// socket empty sleeps until expectWake bytes (or the rest of the
// payload, or the caller's buffer) can be had at once. The bytes must
// be certain to arrive — a mark above what the peer will send would
// wait for its FIN. Expect and Read belong to one goroutine.
func (c *tcpConn) Expect(n int) { c.expect = max(n, 0) }

// Read reads an announced payload as Expect says. Any other read polls
// first if the connection is hot, its polls have not been missing, and
// no other reader in the process is polling or parked; then it parks in
// the runtime's network poller as *net.TCPConn does. A payload's reads
// are not arrivals: they neither poll nor heat the connection.
func (c *tcpConn) Read(p []byte) (n int, err error) {
	if c.expect > 0 {
		return c.readBulk(p)
	}
	polled := false
	if c.hot && c.try != nil && len(p) > 0 && parked.Load() == 0 {
		if c.skip > 0 {
			c.skip--
		} else if poller.CompareAndSwap(false, true) {
			n, polled, err = c.poll(p)
			poller.Store(false)
		}
	}
	if !polled {
		n, err = c.park(p)
	}
	if n > 0 {
		now := time.Now()
		c.hot = now.Sub(c.last) < pollWindow
		c.last = now
	}
	return n, err
}

func (c *tcpConn) readBulk(p []byte) (int, error) {
	c.setLowat(min(c.expect, expectWake, len(p)))
	n, err := c.park(p)
	if c.expect -= n; c.expect <= 0 || err != nil {
		// A buffered reader above may have read past the payload.
		c.expect = 0
		c.setLowat(1)
	}
	return n, err
}

// poll tries the socket without blocking until data, the end of the
// stream or a socket error comes back (done is true), or until
// pollWindow has passed, another reader parks, or RawConn refuses
// because the connection was closed or its deadline passed (done is
// false: the blocking read that follows then reports it in net's own
// words). Between tries it yields the P, so that on one P the receiver
// this handler woke still runs and writes the reply the peer is waiting
// to answer.
func (c *tcpConn) poll(p []byte) (n int, done bool, err error) {
	c.buf = p
	for start := time.Now(); ; runtime.Gosched() {
		if c.rc.Read(c.try) != nil {
			break
		}
		if c.err != syscall.EAGAIN && c.err != syscall.EINTR {
			done = true
			c.backoff = 0
			break
		}
		if parked.Load() != 0 {
			break
		}
		if time.Since(start) >= pollWindow {
			c.backoff = min(max(2*c.backoff, 2), missBackoff)
			c.skip = c.backoff
			break
		}
	}
	c.buf = nil
	switch {
	case !done:
	case c.err != nil:
		err = &net.OpError{Op: "read", Net: "tcp", Source: c.LocalAddr(), Addr: c.RemoteAddr(), Err: os.NewSyscallError("read", c.err)}
	case c.n == 0:
		err = io.EOF
	default:
		n = c.n
	}
	return n, done, err
}

// park is a read that may wait in the network poller; while it does, no
// reader of the process polls.
func (c *tcpConn) park(p []byte) (int, error) {
	parked.Add(1)
	defer parked.Add(-1)
	return c.TCPConn.Read(p)
}

// tryRead is poll's RawConn callback: one read(2), and never a wait.
func (c *tcpConn) tryRead(fd uintptr) bool {
	c.n, c.err = readNow(fd, c.buf)
	return true
}

// setLowat moves the socket's receive low-water mark; a platform or
// socket that refuses is left alone from then on.
func (c *tcpConn) setLowat(n int) {
	if n = max(n, 1); n == c.lowat || c.lowat == 0 {
		return
	}
	var serr error
	if err := c.rc.Control(func(fd uintptr) { serr = setRcvLowat(fd, n) }); err != nil || serr != nil {
		c.lowat = 0
		return
	}
	c.lowat = n
}

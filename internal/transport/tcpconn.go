package transport

import (
	"net"
	"syscall"
)

// expectWake caps how many bytes of an announced payload pile up in
// the socket before the reader is woken. A reader that drains the
// socket faster than its peer fills it otherwise sleeps and is woken
// again every few segments — 4.7 times per MiB between two processes
// on a 2-vCPU guest, where each wake-up is an inter-processor interrupt
// whose latency the host decides — and the op time follows the host's
// mood. Waking per 256 KiB keeps the copy-out overlapped with the
// sender's copy-in, which waiting for the whole payload would not.
// Measured in DESIGN.md §7.
const expectWake = 256 << 10

// tcpListener hands out connections that understand Expect.
type tcpListener struct{ net.Listener }

func (l tcpListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c, nil
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return c, nil
	}
	return &tcpConn{TCPConn: tc, rc: rc, lowat: 1}, nil
}

// tcpConn is an accepted TCP connection whose reader can announce a
// bulk payload; everything else is *net.TCPConn's.
type tcpConn struct {
	*net.TCPConn
	rc     syscall.RawConn
	expect int // announced bytes not yet read
	lowat  int // the socket's current receive low-water mark
}

// Expect announces that the next n bytes of the stream are one payload
// the peer is already writing, so the reader need not be woken for each
// segment of it: until they have been read, a Read that finds the
// socket empty sleeps until expectWake bytes (or the rest of the
// payload, or the caller's buffer) can be had at once. The bytes must
// be certain to arrive — a mark above what the peer will send would
// wait for its FIN. Expect and Read belong to one goroutine.
func (c *tcpConn) Expect(n int) { c.expect = max(n, 0) }

func (c *tcpConn) Read(p []byte) (int, error) {
	if c.expect == 0 {
		return c.TCPConn.Read(p)
	}
	c.setLowat(min(c.expect, expectWake, len(p)))
	n, err := c.TCPConn.Read(p)
	if c.expect -= n; c.expect <= 0 || err != nil {
		// A buffered reader above may have read past the payload.
		c.expect = 0
		c.setLowat(1)
	}
	return n, err
}

// setLowat moves the socket's receive low-water mark; a platform or
// socket that refuses is left alone from then on.
func (c *tcpConn) setLowat(n int) {
	if n = max(n, 1); n == c.lowat || c.rc == nil {
		return
	}
	var serr error
	if err := c.rc.Control(func(fd uintptr) { serr = setRcvLowat(fd, n) }); err != nil || serr != nil {
		c.rc = nil
		return
	}
	c.lowat = n
}

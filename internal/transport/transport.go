// Package transport provides the byte-stream fabrics beneath the
// network devices (niodev, ibisdev):
//
//   - TCP        — real kernel sockets, for multi-process jobs
//   - InProc     — in-memory buffered pipes, for single-process jobs
//     (the SMP scenario of the paper and the unit-test harness)
//   - Shaped     — in-memory pipes with a configurable latency and
//     bandwidth model, emulating Fast Ethernet, Gigabit Ethernet or
//     Myrinet links so protocol behaviour (eager vs rendezvous) can be
//     observed at realistic timescales
//
// All three satisfy xdev.Transport.
package transport

import (
	"fmt"
	"net"
	"sync"

	"mpj/internal/xdev"
)

// TCP is the real-socket transport.
type TCP struct{}

var _ xdev.Transport = TCP{}

// Listen opens a TCP listener on addr ("host:port"; port 0 picks one).
// The connections it accepts take the Expect hint (see tcpConn).
func (TCP) Listen(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return tcpListener{l}, nil
}

// Dial connects to a TCP listener.
func (TCP) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// InProc is an in-memory transport. Listeners are registered in the
// transport instance under their address string; Dial matches by
// address. Connections are buffered pipes with bufSize bytes of
// "socket buffer" per direction.
type InProc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
	bufSize   int
	pipe      func() (net.Conn, net.Conn)
}

var _ xdev.Transport = (*InProc)(nil)

// NewInProc returns an in-process transport whose connections buffer
// bufSize bytes per direction (0 selects 64 KiB, a common default
// socket buffer size).
func NewInProc(bufSize int) *InProc {
	if bufSize <= 0 {
		bufSize = 64 << 10
	}
	t := &InProc{listeners: make(map[string]*inprocListener), bufSize: bufSize}
	t.pipe = func() (net.Conn, net.Conn) { return Pipe(t.bufSize) }
	return t
}

// NewShaped returns an in-process transport whose connections model a
// link with the given one-way latency (seconds) and bandwidth
// (bytes/second), buffering bufSize bytes per direction. It is the live
// (wall-clock) counterpart of the netsim discrete-event models.
func NewShaped(bufSize int, latency float64, bandwidth float64) *InProc {
	if bufSize <= 0 {
		bufSize = 64 << 10
	}
	t := &InProc{listeners: make(map[string]*inprocListener), bufSize: bufSize}
	t.pipe = func() (net.Conn, net.Conn) { return ShapedPipe(t.bufSize, latency, bandwidth) }
	return t
}

type inprocListener struct {
	t      *InProc
	addr   inprocAddr
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

type inprocAddr string

func (a inprocAddr) Network() string { return "inproc" }
func (a inprocAddr) String() string  { return string(a) }

// Listen registers a listener under addr within this transport.
func (t *InProc) Listen(addr string) (net.Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.listeners[addr]; dup {
		return nil, fmt.Errorf("inproc: address %q already in use", addr)
	}
	l := &inprocListener{
		t:      t,
		addr:   inprocAddr(addr),
		accept: make(chan net.Conn),
		done:   make(chan struct{}),
	}
	t.listeners[addr] = l
	return l, nil
}

// Dial connects to a previously registered listener.
func (t *InProc) Dial(addr string) (net.Conn, error) {
	t.mu.Lock()
	l, ok := t.listeners[addr]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("inproc: connection refused: no listener on %q", addr)
	}
	client, server := t.pipe()
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("inproc: connection refused: listener on %q closed", addr)
	}
}

func (l *inprocListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.t.mu.Lock()
		delete(l.t.listeners, string(l.addr))
		l.t.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() net.Addr { return l.addr }

package niodev

import (
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"mpj/internal/mpjbuf"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// spyTransport counts the bulk reads (≥ 64 KiB: payload streaming past
// the bufio layer) its connections serve, and how many of them were
// issued from beneath a crcReader — the seam that shows whether a
// receive paid for a checksum.
type spyTransport struct {
	xdev.Transport
	bulk, viaCRC atomic.Int64
}

func (s *spyTransport) Listen(addr string) (net.Listener, error) {
	l, err := s.Transport.Listen(addr)
	return spyListener{l, s}, err
}

func (s *spyTransport) Dial(addr string) (net.Conn, error) {
	c, err := s.Transport.Dial(addr)
	return spyConn{c, s}, err
}

type spyListener struct {
	net.Listener
	s *spyTransport
}

func (l spyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return spyConn{c, l.s}, err
}

type spyConn struct {
	net.Conn
	s *spyTransport
}

func (c spyConn) Read(p []byte) (int, error) {
	if len(p) >= 64<<10 {
		c.s.bulk.Add(1)
		pcs := make([]uintptr, 32)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
		for more := true; more; {
			var f runtime.Frame
			if f, more = frames.Next(); strings.HasSuffix(f.Function, "(*crcReader).Read") {
				c.s.viaCRC.Add(1)
				break
			}
		}
	}
	return c.Conn.Read(p)
}

// TestChecksumOnlyWhenNegotiated: a connection whose hello did not
// negotiate checksums must not CRC the payload it streams into the
// receive buffer (it used to compute the sum and throw it away). With
// checksums on the same transfer does go through the crcReader, which
// shows the seam sees what it claims to.
func TestChecksumOnlyWhenNegotiated(t *testing.T) {
	for _, off := range []bool{true, false} {
		spy := &spyTransport{Transport: transport.NewInProc(0)}
		const n = 1 << 17 // 1 MiB of doubles: rendezvous
		runJob(t, 2, xdev.Config{DisableChecksum: off, Dialer: spy}, func(d *Device, rank int, pids []xdev.ProcessID) {
			buf := mpjbuf.New(0)
			if rank == 0 {
				vals := make([]float64, n)
				vals[n-1] = 42
				if err := buf.WriteDoubles(vals, 0, n); err != nil {
					t.Error(err)
				}
				if err := d.Send(buf, pids[1], 3, 0); err != nil {
					t.Errorf("send: %v", err)
				}
				return
			}
			if _, err := d.Recv(buf, pids[0], 3, 0); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			out := make([]float64, n)
			if _, err := buf.ReadDoubles(out, 0, n); err != nil || out[n-1] != 42 {
				t.Errorf("payload: %v %v", out[n-1], err)
			}
		})
		bulk, viaCRC := spy.bulk.Load(), spy.viaCRC.Load()
		if bulk == 0 {
			t.Fatalf("checksums off=%v: no bulk read seen; the seam is not on the payload path", off)
		}
		if off && viaCRC != 0 {
			t.Errorf("checksums off: %d of %d payload reads went through crc32", viaCRC, bulk)
		}
		if !off && viaCRC == 0 {
			t.Errorf("checksums on: none of %d payload reads went through crc32", bulk)
		}
	}
}

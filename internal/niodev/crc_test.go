package niodev

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
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

// TestChecksumOnlyWhenNegotiated: each direction of the one connection
// follows its writer's checksum setting. A receive from a peer that
// does not checksum must not CRC the payload it streams into the
// receive buffer (it used to compute the sum and throw it away); from a
// peer that does, the same transfer goes through the crcReader, which
// shows the seam sees what it claims to. Mixed settings — on at one
// end, off at the other, with either end dialing — must interoperate.
func TestChecksumOnlyWhenNegotiated(t *testing.T) {
	const n = 1 << 17 // 1 MiB of doubles: rendezvous
	for _, off := range [][2]bool{{true, true}, {false, false}, {false, true}, {true, false}} {
		base := transport.NewInProc(0)
		job := jobCounter.Add(1)
		addrs := []string{fmt.Sprintf("crc-%d-rank-0", job), fmt.Sprintf("crc-%d-rank-1", job)}
		var spies [2]*spyTransport
		var devs [2]*Device
		var wg sync.WaitGroup
		for rank := range devs {
			spies[rank] = &spyTransport{Transport: base}
			devs[rank] = New()
			cfg := xdev.Config{Rank: rank, Size: 2, Addrs: addrs, Dialer: spies[rank], DisableChecksum: off[rank]}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := devs[rank].Init(cfg); err != nil {
					t.Errorf("checksums off=%v: rank %d init: %v", off, rank, err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for rank, d := range devs {
			peer := devs[1-rank]
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := mpjbuf.New(0)
				vals := make([]float64, n)
				vals[n-1] = 42
				if err := buf.WriteDoubles(vals, 0, n); err != nil {
					t.Error(err)
				}
				if err := d.Send(buf, peer.self, 3, 0); err != nil {
					t.Errorf("checksums off=%v: rank %d send: %v", off, rank, err)
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := mpjbuf.New(0)
				if _, err := d.Recv(buf, peer.self, 3, 0); err != nil {
					t.Errorf("checksums off=%v: rank %d recv: %v", off, rank, err)
					return
				}
				out := make([]float64, n)
				if _, err := buf.ReadDoubles(out, 0, n); err != nil || out[n-1] != 42 {
					t.Errorf("payload: %v %v", out[n-1], err)
				}
			}()
		}
		wg.Wait()
		for _, d := range devs {
			d.Finish()
		}
		for rank, spy := range spies {
			bulk, viaCRC := spy.bulk.Load(), spy.viaCRC.Load()
			peerOff := off[1-rank]
			if bulk == 0 {
				t.Fatalf("checksums off=%v: rank %d saw no bulk read; the seam is not on the payload path", off, rank)
			}
			if peerOff && viaCRC != 0 {
				t.Errorf("checksums off=%v: %d of rank %d's %d payload reads went through crc32", off, viaCRC, rank, bulk)
			}
			if !peerOff && viaCRC == 0 {
				t.Errorf("checksums off=%v: none of rank %d's %d payload reads went through crc32", off, rank, bulk)
			}
		}
	}
}

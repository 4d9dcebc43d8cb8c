package niodev

import (
	"net"
	"runtime"
	"sync"
	"testing"

	"mpj/internal/mpjbuf"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// orderSpy logs, in call order, the Reads (its input handler's) and the
// Writes on rank 1's end of the one connection of a two-rank job,
// whether rank 1 dialed it or accepted it.
type orderSpy struct {
	xdev.Transport
	rank1 string // rank 1's listen address

	mu  sync.Mutex
	ops []byte // 'R' or 'W'
}

func (s *orderSpy) note(op byte) {
	s.mu.Lock()
	s.ops = append(s.ops, op)
	s.mu.Unlock()
}

func (s *orderSpy) Listen(addr string) (net.Listener, error) {
	l, err := s.Transport.Listen(addr)
	if err != nil || addr != s.rank1 {
		return l, err
	}
	return orderListener{l, s}, nil
}

func (s *orderSpy) Dial(addr string) (net.Conn, error) {
	c, err := s.Transport.Dial(addr)
	if err != nil || addr == s.rank1 {
		return c, err // rank 0's end
	}
	return orderConn{c, s}, nil
}

type orderListener struct {
	net.Listener
	s *orderSpy
}

func (l orderListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return orderConn{c, l.s}, nil
}

type orderConn struct {
	net.Conn
	s *orderSpy
}

func (c orderConn) Read(p []byte) (int, error) {
	c.s.note('R')
	return c.Conn.Read(p)
}

func (c orderConn) Write(p []byte) (int, error) {
	c.s.note('W')
	return c.Conn.Write(p)
}

// On one P, the input handler that completes a parked receive lets the
// woken goroutine run before it issues its next read: rank 1's reply to
// ping i is written before its handler's read for ping i+1. Without the
// yield the handler reads first and the reply waits for that read to
// block.
func TestHandlerYieldsToWokenReceiver(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const msgs = 100
	spy := &orderSpy{Transport: transport.NewInProc(0), rank1: "rank-1"}
	var ops []byte
	runJob(t, 2, xdev.Config{Dialer: spy}, func(d *Device, rank int, pids []xdev.ProcessID) {
		peer := pids[1-rank]
		in, out := mpjbuf.New(0), mpjbuf.New(0)
		for i := 0; i < msgs; i++ {
			out.Reset()
			if err := out.WriteBytes([]byte("8 bytes!"), 0, 8); err != nil {
				t.Error(err)
				return
			}
			if rank == 0 {
				if err := d.Send(out, peer, 1, 0); err != nil {
					t.Errorf("ping %d: %v", i, err)
					return
				}
			}
			if _, err := d.Recv(in, peer, 1, 0); err != nil {
				t.Errorf("rank %d recv %d: %v", rank, i, err)
				return
			}
			if rank == 1 {
				if err := d.Send(out, peer, 1, 0); err != nil {
					t.Errorf("pong %d: %v", i, err)
					return
				}
			}
		}
		if rank == 1 {
			spy.mu.Lock()
			ops = append(ops, spy.ops...)
			spy.mu.Unlock()
		}
	})
	// The first Read and the first Write carry the hellos.
	var reads, writes []int
	for i, op := range ops {
		if op == 'R' {
			reads = append(reads, i)
		} else {
			writes = append(writes, i)
		}
	}
	if len(reads) < msgs+1 || len(writes) < msgs+1 {
		t.Fatalf("saw %d reads and %d writes for %d round trips: %s", len(reads), len(writes), msgs, ops)
	}
	reads, writes = reads[1:], writes[1:]
	// Reply i is writes[i]; the handler's read after delivering ping i is
	// reads[i+1]. The scheduler takes its global queue, where the yielding
	// handler waits, ahead of the woken receiver once every 61 schedules,
	// so a few late replies are expected; without the yield all are late.
	late := 0
	for i := 0; i < msgs && i+1 < len(reads); i++ {
		if reads[i+1] < writes[i] {
			late++
		}
	}
	t.Logf("%d of %d replies late", late, msgs)
	if late > msgs/10 {
		t.Errorf("%d of %d replies were written after the handler's next read", late, msgs)
	}
}

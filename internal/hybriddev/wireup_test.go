package hybriddev

import (
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// dialCounter counts the connections dialed through it.
type dialCounter struct {
	xdev.Transport
	dials atomic.Int64
}

func (c *dialCounter) Dial(addr string) (net.Conn, error) {
	conn, err := c.Transport.Dial(addr)
	if err == nil {
		c.dials.Add(1)
	}
	return conn, err
}

// niodevHandlers counts the goroutines running a niodev input handler,
// once the count has held still for 20 ms.
func niodevHandlers() int {
	count := func() int {
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				return strings.Count(string(buf[:n]), "niodev.(*Device).inputHandler(")
			}
			buf = make([]byte, 2*len(buf))
		}
	}
	for last := count(); ; {
		time.Sleep(20 * time.Millisecond)
		if n := count(); n == last {
			return n
		} else {
			last = n
		}
	}
}

// TestWireUpOneConnectionPerPair: the niodev inner of an np=4 hybrid
// job dials one in-process pipe per pair, six in all, and each device
// runs np-1 input handlers on them.
func TestWireUpOneConnectionPerPair(t *testing.T) {
	const n = 4
	before := niodevHandlers()
	tr := &dialCounter{Transport: transport.NewInProc(0)}
	initJob(t, interleaved(n), tr)
	if got := tr.dials.Load(); got != n*(n-1)/2 {
		t.Errorf("%d pipes dialed, want %d", got, n*(n-1)/2)
	}
	if got := niodevHandlers() - before; got != n*(n-1) {
		t.Errorf("%d input handlers across %d devices, want %d", got, n, n*(n-1))
	}
}

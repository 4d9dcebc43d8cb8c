package hybriddev

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
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
	job := jobCounter.Add(1)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("hyb-wire-%d-rank-%d", job, i)
	}
	devs := make([]*Device, n)
	var wg sync.WaitGroup
	for rank := range devs {
		devs[rank] = New()
		cfg := xdev.Config{
			Rank: rank, Size: n, Addrs: addrs, Dialer: tr,
			Group: fmt.Sprintf("hyb-wire-%d", job), NodeOf: interleaved(n), Colocated: true,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := devs[rank].Init(cfg); err != nil {
				t.Errorf("rank %d init: %v", rank, err)
			}
		}()
	}
	wg.Wait()
	defer func() {
		for _, d := range devs {
			d.Finish()
		}
	}()
	if t.Failed() {
		return
	}
	if got := tr.dials.Load(); got != n*(n-1)/2 {
		t.Errorf("%d pipes dialed, want %d", got, n*(n-1)/2)
	}
	if got := niodevHandlers() - before; got != n*(n-1) {
		t.Errorf("%d input handlers across %d devices, want %d", got, n, n*(n-1))
	}
}

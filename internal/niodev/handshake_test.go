package niodev

import (
	"errors"
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

// inputHandlers counts the goroutines running an input handler, in
// every device of the process, once the count has held still for 20 ms.
func inputHandlers() int {
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

// sendHello dials addr, writes a well-formed hello from slot from to
// slot to, and returns what reading the answer returned: nil if the
// acceptor answered, an error if it closed the connection instead.
func sendHello(t *testing.T, tr xdev.Transport, addr string, from, to uint32) error {
	t.Helper()
	c, err := tr.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	if err := writeHello(c, from, to); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	_, _, err = readHello(c)
	return err
}

// pingPong checks that a and b still talk in both directions.
func pingPong(t *testing.T, a, b *Device) {
	t.Helper()
	if err := chaosSend(a, b.self, 77, []int64{1}); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := chaosRecv(b, a.self, 77); err != nil {
		t.Fatalf("ping recv: %v", err)
	}
	if err := chaosSend(b, a.self, 78, []int64{2}); err != nil {
		t.Fatalf("pong: %v", err)
	}
	if err := chaosRecv(a, b.self, 78); err != nil {
		t.Fatalf("pong recv: %v", err)
	}
}

// TestHelloRejectedTyped: the acceptor turns away, with errBadHello,
// every hello but the one from a peer that should dial it and has not.
// Rank 1 of three is dialed by rank 2 and dials rank 0.
func TestHelloRejectedTyped(t *testing.T) {
	devs := chaosJob(t, 3, nil)
	d := devs[1]
	for _, tc := range []struct {
		name     string
		from, to uint32
	}{
		{"names itself", 1, 1},
		{"out of range", 7, 1},
		{"should not dial", 0, 1},
		{"already connected", 2, 1},
		{"addressed elsewhere", 2, 0},
	} {
		a, b := transport.Pipe(64)
		go func() {
			if err := writeHello(a, tc.from, tc.to); err != nil {
				t.Errorf("%s: write hello: %v", tc.name, err)
			}
		}()
		if err := d.admit(b); !errors.Is(err, errBadHello) {
			t.Errorf("%s: admit = %v, want errBadHello", tc.name, err)
		}
		a.Close()
		b.Close()
	}
	pingPong(t, devs[2], devs[1])
}

// TestDuplicateHelloAfterInit: a second hello for a connected slot is
// refused — the connection closed unanswered — and starts no second
// input handler. It used to drive a WaitGroup negative and kill the
// process.
func TestDuplicateHelloAfterInit(t *testing.T) {
	before := inputHandlers()
	var tr xdev.Transport
	devs := chaosJob(t, 2, func(_ int, base xdev.Transport) xdev.Transport {
		tr = base
		return base
	})
	if n := inputHandlers() - before; n != 2 {
		t.Fatalf("%d input handlers in a two-rank job, want 2", n)
	}
	if err := sendHello(t, tr, devs[0].cfg.Addrs[0], 1, 0); err == nil {
		t.Fatal("rank 0 answered a second hello from slot 1")
	}
	pingPong(t, devs[1], devs[0])
	if n := inputHandlers() - before; n != 2 {
		t.Errorf("%d input handlers after the duplicate hello, want 2", n)
	}
}

// greetSignal closes greeted once the connection it dials to addr has
// read the acceptor's reply: from then on the acceptor has admitted it.
type greetSignal struct {
	xdev.Transport
	addr    string
	greeted chan struct{}
	once    sync.Once
}

func (g *greetSignal) Dial(addr string) (net.Conn, error) {
	c, err := g.Transport.Dial(addr)
	if err != nil || addr != g.addr {
		return c, err
	}
	return greetConn{c, g}, nil
}

type greetConn struct {
	net.Conn
	g *greetSignal
}

func (c greetConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.g.once.Do(func() { close(c.g.greeted) })
	return n, err
}

// TestDuplicateHelloDuringInit: a duplicate that arrives while the
// acceptor's Init still waits for another peer is refused, and does not
// count as that peer: Init returns only once every real peer is in.
func TestDuplicateHelloDuringInit(t *testing.T) {
	before := inputHandlers()
	base := transport.NewInProc(0)
	job := jobCounter.Add(1)
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("dup-%d-rank-%d", job, i)
	}
	spy := &greetSignal{Transport: base, addr: addrs[0], greeted: make(chan struct{})}
	devs := []*Device{New(), New(), New()}
	errs := make([]error, 3)
	var wg sync.WaitGroup
	start := func(rank int, tr xdev.Transport) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[rank] = devs[rank].Init(xdev.Config{Rank: rank, Size: 3, Addrs: addrs, Dialer: tr})
		}()
	}
	t.Cleanup(func() {
		for _, d := range devs {
			d.Finish()
		}
	})
	start(0, base)
	start(1, spy)
	select {
	case <-spy.greeted:
	case <-time.After(10 * time.Second):
		t.Fatal("rank 1 never connected to rank 0")
	}
	inited := make(chan struct{})
	go func() {
		wg.Wait()
		close(inited)
	}()
	if err := sendHello(t, base, addrs[0], 1, 0); err == nil {
		t.Fatal("rank 0 answered a second hello from slot 1 during Init")
	}
	select {
	case <-inited:
		t.Fatal("Init returned before rank 2 started")
	case <-time.After(20 * time.Millisecond):
	}
	start(2, base)
	<-inited
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d init: %v", rank, err)
		}
	}
	pingPong(t, devs[1], devs[0])
	pingPong(t, devs[2], devs[0])
	if n := inputHandlers() - before; n != 6 {
		t.Errorf("%d input handlers in a three-rank job, want 6", n)
	}
}

// TestFinishNotHeldBySilentConnection: a connection that is accepted
// and never sends its hello must not hold Finish, on a transport whose
// deadlines do nothing.
func TestFinishNotHeldBySilentConnection(t *testing.T) {
	var tr xdev.Transport
	devs := chaosJob(t, 2, func(_ int, base xdev.Transport) xdev.Transport {
		tr = base
		return base
	})
	c, err := tr.Dial(devs[0].cfg.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		devs[0].Finish()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		c.Close() // unblock the handshake so the cleanup's Finish returns
		t.Fatal("Finish has not returned 2 s after it was called")
	}
}

// TestDialRetryDelay: a dialer refused five times still joins, and its
// retries sleep at most 3.2 ms in all — 100+200+400+800+1600 µs of
// ceilings — so a peer that listens late costs about its lateness.
func TestDialRetryDelay(t *testing.T) {
	const refusals = 5
	var faulty *transport.Faulty
	t0 := time.Now()
	devs := chaosJob(t, 2, func(rank int, base xdev.Transport) xdev.Transport {
		if rank != 1 {
			return base
		}
		faulty = transport.NewFaulty(base, transport.FaultPlan{Seed: 1, DialRefusals: refusals})
		return faulty
	})
	t.Logf("Init took %v with %d refusals", time.Since(t0), refusals)
	if got := faulty.Dials(devs[1].cfg.Addrs[0]); got != refusals+1 {
		t.Fatalf("rank 1 dialed rank 0 %d times, want %d", got, refusals+1)
	}
	// The sleeps are the backoff's draws, which the seed fixes.
	bo := dialBackoff(1, 2, 0)
	var slept time.Duration
	for i := 0; i < refusals; i++ {
		slept += bo.Next()
	}
	if slept > 3200*time.Microsecond {
		t.Errorf("retries sleep %v in all, want ≤ 3.2ms", slept)
	}
	pingPong(t, devs[1], devs[0])
}

// TestWireUpWaitLeaksNoGoroutine: the wait for peer connections, timed
// out, leaves no goroutine behind.
func TestWireUpWaitLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if err := awaitN(make(chan struct{}), 1, time.Millisecond); err == nil {
			t.Fatal("wait for a peer that never comes succeeded")
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after ten timed-out waits, %d before", after, before)
	}
}

// connCounter counts the connections one rank dials and accepts.
type connCounter struct {
	xdev.Transport
	dials, accepts atomic.Int64
}

func (c *connCounter) Dial(addr string) (net.Conn, error) {
	conn, err := c.Transport.Dial(addr)
	if err == nil {
		c.dials.Add(1)
	}
	return conn, err
}

func (c *connCounter) Listen(addr string) (net.Listener, error) {
	l, err := c.Transport.Listen(addr)
	return countingListener{l, c}, err
}

type countingListener struct {
	net.Listener
	c *connCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.c.accepts.Add(1)
	}
	return conn, err
}

// TestWireUpOneConnectionPerPair: an np=4 job makes exactly one
// connection per pair — six dials — and each rank holds np-1
// connections with one input handler on each.
func TestWireUpOneConnectionPerPair(t *testing.T) {
	const n = 4
	before := inputHandlers()
	counters := make([]*connCounter, n)
	devs := chaosJob(t, n, func(rank int, base xdev.Transport) xdev.Transport {
		counters[rank] = &connCounter{Transport: base}
		return counters[rank]
	})
	var dials int64
	for rank, c := range counters {
		dials += c.dials.Load()
		if got := c.dials.Load() + c.accepts.Load(); got != n-1 {
			t.Errorf("rank %d made %d connections, want %d", rank, got, n-1)
		}
	}
	if dials != n*(n-1)/2 {
		t.Errorf("%d dials, want %d", dials, n*(n-1)/2)
	}
	if got := inputHandlers() - before; got != n*(n-1) {
		t.Errorf("%d input handlers across %d ranks, want %d", got, n, n*(n-1))
	}
	pingPong(t, devs[3], devs[0])
}

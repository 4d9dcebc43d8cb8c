package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// tcpPair returns a dialed connection and its accepted peer.
func tcpPair(t *testing.T) (dialed, accepted net.Conn) {
	t.Helper()
	l, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dialed, err = TCP{}.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

// within fails the test when f has not returned after a generous bound:
// every way Expect can go wrong is a reader that never wakes.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: reader still asleep after 10 s", what)
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// An announced payload arrives whole however the peer dribbles it, and
// the frames after it — which a buffered reader may have swallowed with
// its tail — are read with the mark back at one byte. Either end of a
// connection may be the reader.
func TestExpectDeliversPayloadAndFollowers(t *testing.T) {
	t.Run("accepted reads", func(t *testing.T) {
		dialed, accepted := tcpPair(t)
		expectPayloadAndFollowers(t, dialed, accepted)
	})
	t.Run("dialed reads", func(t *testing.T) {
		dialed, accepted := tcpPair(t)
		expectPayloadAndFollowers(t, accepted, dialed)
	})
}

func expectPayloadAndFollowers(t *testing.T, w, r net.Conn) {
	e, ok := r.(interface{ Expect(n int) })
	if !ok {
		t.Fatalf("connection %T does not take Expect", r)
	}
	payload := pattern(1<<20 + 13)
	go func() {
		for off := 0; off < len(payload); {
			n := min(len(payload)-off, 100_000)
			w.Write(payload[off : off+n])
			off += n
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		w.Write([]byte{1}) // a lone byte well below any bulk mark
		time.Sleep(20 * time.Millisecond)
		w.Write([]byte{2, 3})
	}()
	br := bufio.NewReaderSize(r, 64<<10)
	got := make([]byte, len(payload))
	within(t, "payload", func() {
		e.Expect(len(payload))
		if _, err := io.ReadFull(br, got); err != nil {
			t.Errorf("payload: %v", err)
		}
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	within(t, "followers", func() {
		var tail [3]byte
		if _, err := io.ReadFull(br, tail[:]); err != nil || tail != [3]byte{1, 2, 3} {
			t.Errorf("followers: %v %v", tail, err)
		}
	})
}

// A peer that dies inside the payload it announced wakes the reader
// with what it sent and the end of the stream.
func TestExpectPeerClosesMidPayload(t *testing.T) {
	w, r := tcpPair(t)
	go func() {
		w.Write(pattern(10_000))
		time.Sleep(20 * time.Millisecond)
		w.Close()
	}()
	within(t, "short payload", func() {
		r.(interface{ Expect(n int) }).Expect(1 << 20)
		n, err := io.ReadFull(r, make([]byte, 1<<20))
		if n != 10_000 || err != io.ErrUnexpectedEOF {
			t.Errorf("got %d bytes, %v; want 10000, unexpected EOF", n, err)
		}
	})
}

// A payload larger than any socket buffer: the mark is capped and the
// closing receive window wakes the reader, so nothing waits for bytes
// the sender has no room to send.
func TestExpectLargerThanSocketBuffers(t *testing.T) {
	w, r := tcpPair(t)
	payload := pattern(48 << 20)
	go w.Write(payload)
	got := make([]byte, len(payload))
	within(t, "48 MiB", func() {
		r.(interface{ Expect(n int) }).Expect(len(payload))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Errorf("payload: %v", err)
		}
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
}

// countTries wraps c's poll callback to count raw read attempts; call
// it before the connection's first poll.
func countTries(t *testing.T, c net.Conn, each func(try int64)) (*tcpConn, *atomic.Int64) {
	t.Helper()
	if !canPoll {
		t.Skip("this platform does not poll")
	}
	// A reader an earlier test left parked until its cleanup's Close
	// reaches it would keep this connection from polling.
	for start := time.Now(); parked.Load() != 0; runtime.Gosched() {
		if time.Since(start) > time.Second {
			t.Fatalf("%d readers still parked", parked.Load())
		}
	}
	tc := c.(*tcpConn)
	tries := new(atomic.Int64)
	inner := tc.try
	tc.try = func(fd uintptr) bool {
		n := tries.Add(1)
		if each != nil {
			each(n)
		}
		return inner(fd)
	}
	return tc, tries
}

// A read on a hot connection whose data comes only after it has found
// the socket empty polls until it arrives, and allocates nothing doing
// so: the callback and its result live in the connection.
func TestHotReadAllocatesNothing(t *testing.T) {
	w, r := tcpPair(t)
	tc, tries := countTries(t, r, nil)
	kick := make(chan int64)
	defer close(kick)
	go func() {
		one := []byte{1}
		patient := true
		for before := range kick {
			// Write once the reader has tried the empty socket; stop
			// waiting for that (and fail below) once it did not poll.
			for start := time.Now(); patient && tries.Load() == before; {
				patient = time.Since(start) < time.Second
				runtime.Gosched()
			}
			w.Write(one)
		}
	}()
	var b [1]byte
	reads := 0
	allocs := testing.AllocsPerRun(100, func() {
		tc.hot, tc.skip = true, 0 // even after a poll the host made miss
		kick <- tries.Load()
		if n, err := tc.Read(b[:]); n != 1 || err != nil {
			t.Fatalf("read %d, %v", n, err)
		}
		reads++
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per hot read, want 0", allocs)
	}
	// A parked read makes no raw read attempt.
	if got := tries.Load(); got < int64(reads) {
		t.Errorf("%d raw reads over %d hot reads: the reads did not poll", got, reads)
	}
}

// A read on a cold connection, or one while another reader of the
// process holds the polling token or waits in the network poller, goes
// straight to the network poller: it makes no raw read attempt, however
// long its data takes.
func TestColdConnectionParks(t *testing.T) {
	late := func(t *testing.T, w net.Conn, tc *tcpConn) {
		t.Helper()
		go func() {
			time.Sleep(5 * time.Millisecond)
			w.Write([]byte{9})
		}()
		within(t, "late byte", func() {
			var b [1]byte
			if n, err := tc.Read(b[:]); n != 1 || err != nil || b[0] != 9 {
				t.Errorf("read %d %v, %v", n, b, err)
			}
		})
	}
	t.Run("gap over the window", func(t *testing.T) {
		w, r := tcpPair(t)
		tc, tries := countTries(t, r, nil)
		for i := 0; i < 2; i++ {
			w.Write([]byte{byte(i)})
			if _, err := io.ReadFull(tc, make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * pollWindow)
		}
		if tc.hot {
			t.Fatal("connection hot after a gap ten windows long")
		}
		tries.Store(0)
		late(t, w, tc)
		if n := tries.Load(); n != 0 {
			t.Errorf("cold read made %d raw read attempts, want 0", n)
		}
	})
	t.Run("token held", func(t *testing.T) {
		w, r := tcpPair(t)
		tc, tries := countTries(t, r, nil)
		if !poller.CompareAndSwap(false, true) {
			t.Fatal("polling token already held")
		}
		defer poller.Store(false)
		tc.hot = true
		late(t, w, tc)
		if n := tries.Load(); n != 0 {
			t.Errorf("read made %d raw read attempts while another reader held the token, want 0", n)
		}
	})
	t.Run("after an empty poll", func(t *testing.T) {
		w, r := tcpPair(t)
		tc, tries := countTries(t, r, nil)
		tc.hot = true
		late(t, w, tc) // the poll finds nothing for a whole window
		if tries.Load() == 0 {
			t.Fatal("the hot read did not poll")
		}
		// The miss sends the next two hot reads straight to the poller;
		// the third polls again, and its data clears the back-off.
		for i := 0; i < 4; i++ {
			before := tries.Load()
			w.Write([]byte{byte(i)})
			tc.hot = true
			if _, err := io.ReadFull(tc, make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
			if polled := tries.Load() > before; polled != (i >= 2) {
				t.Errorf("hot read %d after the miss: polled %v, want %v", i, polled, i >= 2)
			}
		}
		if tc.backoff != 0 {
			t.Errorf("back-off %d after a poll that found data, want 0", tc.backoff)
		}
	})
	t.Run("another reader parked", func(t *testing.T) {
		w, r := tcpPair(t)
		tc, tries := countTries(t, r, nil)
		_, other := tcpPair(t)
		go other.Read(make([]byte, 1)) // until the cleanup closes it
		for start := time.Now(); parked.Load() == 0; runtime.Gosched() {
			if time.Since(start) > time.Second {
				t.Fatal("the other reader never parked")
			}
		}
		tc.hot = true
		late(t, w, tc)
		if n := tries.Load(); n != 0 {
			t.Errorf("read made %d raw read attempts while another reader was parked, want 0", n)
		}
	})
}

// A connection closed under a polling reader, and a peer that hangs up
// while its reader polls, end the poll at once: the read returns the
// close error and the end of the stream, as a parked read would.
func TestSpinningReadSeesCloseAndEOF(t *testing.T) {
	t.Run("close", func(t *testing.T) {
		_, r := tcpPair(t)
		polling := make(chan struct{})
		var once atomic.Bool
		tc, _ := countTries(t, r, func(int64) {
			if once.CompareAndSwap(false, true) {
				close(polling)
			}
		})
		go func() {
			<-polling
			r.Close()
		}()
		tc.hot = true
		within(t, "close", func() {
			n, err := tc.Read(make([]byte, 8))
			if n != 0 || !errors.Is(err, net.ErrClosed) {
				t.Errorf("read %d, %v; want 0, net.ErrClosed", n, err)
			}
		})
	})
	t.Run("peer FIN", func(t *testing.T) {
		w, r := tcpPair(t)
		// The peer hangs up between the reader's first try, which finds
		// the socket empty, and its second.
		tc, tries := countTries(t, r, func(n int64) {
			if n == 2 {
				w.Close()
			}
		})
		tc.hot = true
		within(t, "FIN", func() {
			n, err := tc.Read(make([]byte, 8))
			if n != 0 || err != io.EOF {
				t.Errorf("read %d, %v; want 0, io.EOF", n, err)
			}
		})
		if n := tries.Load(); n != 2 {
			t.Errorf("%d raw read attempts, want 2: the poll did not see the FIN", n)
		}
	})
}

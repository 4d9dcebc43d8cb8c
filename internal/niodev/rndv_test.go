package niodev

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpj/internal/devcore"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// A rendezvous send's data frame waits for two events: the sending
// thread's payload checksum, computed while the RTS/RTR handshake is in
// flight, and the receiver's READY_TO_RECV at the input handler.
// Whichever comes second posts the frame. The tests here force each
// order with the checksum held until the other event is in.

const (
	rndvTag  = 5
	markTag  = 6
	rndvVals = 1 << 17 // 1 MiB of doubles: rendezvous at the default eager limit
)

// handoff is the order of a rendezvous send's two hand-off events.
type handoff int

const (
	rtrFirst handoff = iota // READY_TO_RECV before the checksum: the sending thread writes the payload
	sumFirst                // the checksum before READY_TO_RECV: the input handler queues it
)

func (o handoff) String() string { return [...]string{"RTRFirst", "ChecksumFirst"}[o] }

// holdChecksum makes the next rendezvous checksums wait until release
// is closed, restoring the real pass when the test ends.
func holdChecksum(t *testing.T, release <-chan struct{}) {
	beforeRndvChecksum = func() { <-release }
	t.Cleanup(func() { beforeRndvChecksum = func() {} })
}

func rndvPayload() *mpjbuf.Buffer {
	vals := make([]float64, rndvVals)
	for i := range vals {
		vals[i] = float64(i)
	}
	buf := mpjbuf.New(0)
	buf.WriteDoubles(vals, 0, rndvVals)
	return buf
}

func checkRndvPayload(t *testing.T, buf *mpjbuf.Buffer) {
	t.Helper()
	out := make([]float64, rndvVals)
	if _, err := buf.ReadDoubles(out, 0, rndvVals); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != float64(i) {
			t.Fatalf("payload[%d] = %v, want %d", i, v, i)
		}
	}
}

// answerThenMark is the receiver's half of the RTR-first order: it
// waits for the RTS, answers it from this thread, and sends a marker
// behind the RTR on the same connection, so the sender holds the marker
// only once its input handler is done with the RTR. It returns the
// receive's request.
func answerThenMark(r *Device, from xdev.ProcessID, into *mpjbuf.Buffer) (xdev.Request, error) {
	if _, err := r.Probe(from, rndvTag, 0); err != nil {
		return nil, err
	}
	rreq, err := r.IRecv(into, from, rndvTag, 0)
	if err != nil {
		return nil, err
	}
	mark := mpjbuf.New(0)
	mark.WriteInts([]int32{1}, 0, 1)
	return rreq, r.Send(mark, from, markTag, 0)
}

// awaitMark blocks until s holds r's marker; only then is s's
// READY_TO_RECV handled. It probes rather than receives, so no request
// completes on s.
func awaitMark(s *Device, r xdev.ProcessID) error {
	_, err := s.Probe(r, markTag, 0)
	return err
}

// done reports, without collecting it, whether req has completed.
func done(req xdev.Request) bool { return req.(*devcore.Request).Done() }

func waitErr(t *testing.T, what string, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still pending after 10s", what)
		return nil
	}
}

func waitReq(t *testing.T, what string, req xdev.Request) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := req.Wait()
		errc <- err
	}()
	return waitErr(t, what, errc)
}

// sendRndv sends one 1 MiB rendezvous message from s to r with the
// hand-off events forced into order, and returns the send's and the
// pinned receive's outcome; got holds the received payload.
func sendRndv(t *testing.T, s, r *Device, order handoff, got *mpjbuf.Buffer) (sendErr, recvErr error) {
	t.Helper()
	recvc := make(chan error, 1)
	var req xdev.Request
	var err error
	switch order {
	case rtrFirst:
		rtrIn := make(chan struct{})
		holdChecksum(t, rtrIn)
		go func() {
			rreq, err := answerThenMark(r, s.self, got)
			if err == nil {
				_, err = rreq.Wait()
			}
			recvc <- err
		}()
		go func() {
			awaitMark(s, r.self)
			close(rtrIn)
		}()
		if req, err = s.ISend(rndvPayload(), r.self, rndvTag, 0); err != nil {
			t.Fatal(err)
		}
		if !done(req) {
			t.Error("READY_TO_RECV came first, but Isend returned without writing the payload")
		}
	case sumFirst:
		if req, err = s.ISend(rndvPayload(), r.self, rndvTag, 0); err != nil {
			t.Fatal(err)
		}
		if done(req) {
			t.Error("the send completed before the receiver answered")
		}
		go func() {
			_, err := r.Recv(got, s.self, rndvTag, 0)
			recvc <- err
		}()
	}
	return waitReq(t, "rendezvous send", req), waitErr(t, "rendezvous receive", recvc)
}

// TestRndvChecksumHandoff drives both hand-off orders: with the RTR in
// first the sending thread writes the payload before Isend returns;
// with the checksum done first Isend returns a pending request and the
// input handler queues the payload. Either way the receiver verifies
// the precomputed checksum against the bytes that arrive.
func TestRndvChecksumHandoff(t *testing.T) {
	for _, order := range []handoff{rtrFirst, sumFirst} {
		t.Run(order.String(), func(t *testing.T) {
			devs := chaosJob(t, 2, nil)
			got := mpjbuf.New(0)
			sendErr, recvErr := sendRndv(t, devs[0], devs[1], order, got)
			if sendErr != nil || recvErr != nil {
				t.Fatalf("send: %v, receive: %v", sendErr, recvErr)
			}
			checkRndvPayload(t, got)
			if n := devs[1].core.Counters.FramesCorrupt.Load(); n != 0 {
				t.Errorf("%d frames failed their checksum", n)
			}
			if n := devs[0].pendingRndv.Len(); n != 0 {
				t.Errorf("%d rendezvous sends still parked", n)
			}
		})
	}
}

// flipConn flips one bit in the middle of the first large write through
// it — a rendezvous payload segment, never a frame header — leaving the
// sender's buffer untouched.
type flipConn struct {
	net.Conn
	mu      sync.Mutex
	flipped bool
}

func (c *flipConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	flip := !c.flipped && len(p) >= rndvVals*4
	c.flipped = c.flipped || flip
	c.mu.Unlock()
	if flip {
		p = append([]byte(nil), p...)
		p[len(p)/2] ^= 0x10
	}
	return c.Conn.Write(p)
}

func (c *flipConn) didFlip() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flipped
}

// TestRndvPayloadCorruptionDetected flips one bit inside a 1 MiB
// rendezvous payload on the wire, under both hand-off orders. The
// receiver must check the checksum the sender computed during the
// handshake against the bytes actually written: the pinned receive
// fails with ErrPeerLost, the peer's death records ErrCorruptFrame and
// FramesCorrupt counts the frame. (transport.Faulty flips the first
// byte of a write, which is always a header: that only reaches hdrCRC.)
func TestRndvPayloadCorruptionDetected(t *testing.T) {
	for _, order := range []handoff{rtrFirst, sumFirst} {
		t.Run(order.String(), func(t *testing.T) {
			devs := chaosJob(t, 2, nil)
			s, r := devs[0], devs[1]
			q := s.queues[1]
			fc := &flipConn{Conn: q.link()}
			q.mu.Lock()
			q.conn = fc
			q.mu.Unlock()

			_, recvErr := sendRndv(t, s, r, order, mpjbuf.New(0))
			if !fc.didFlip() {
				t.Fatal("no payload write large enough to flip")
			}
			if !errors.Is(recvErr, xdev.ErrPeerLost) || !errors.Is(recvErr, xdev.ErrCorruptFrame) {
				t.Errorf("pinned receive got %v, want ErrPeerLost caused by ErrCorruptFrame", recvErr)
			}
			// The receive completes before the read loop exits and records
			// the death.
			waitUntil(t, "the receiver to declare the sender dead", func() bool { return r.PeerErr(s.self) != nil })
			if err := r.PeerErr(s.self); !errors.Is(err, xdev.ErrCorruptFrame) {
				t.Errorf("receiver recorded peer error %v, want ErrCorruptFrame", err)
			}
			if n := r.core.Counters.FramesCorrupt.Load(); n < 1 {
				t.Errorf("FramesCorrupt = %d, want >= 1", n)
			}
		})
	}
}

// waitGoroutines waits up to 5 s for the goroutine count to fall back to
// before, failing with every stack if it does not.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines before Init=%d after Finish=%d\n%s", before, after, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRndvPeerLostWhileChecksumming: the receiver dies while the sender
// is still checksumming, before its RTR (the peer-death drain owns the
// request) and after it (the sending thread's post finds the queue
// poisoned). Either way the request completes exactly once, with
// ErrPeerLost, and Finish leaves no goroutine behind.
func TestRndvPeerLostWhileChecksumming(t *testing.T) {
	for _, order := range []handoff{sumFirst, rtrFirst} {
		name := map[handoff]string{sumFirst: "BeforeRTR", rtrFirst: "AfterRTR"}[order]
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			devs := chaosJob(t, 2, nil)
			s, r := devs[0], devs[1]
			release := make(chan struct{})
			holdChecksum(t, release)
			reqc := make(chan xdev.Request, 1)
			go func() {
				req, err := s.ISend(rndvPayload(), r.self, rndvTag, 0)
				if err != nil {
					t.Error(err)
				}
				reqc <- req
			}()
			if order == rtrFirst {
				if _, err := answerThenMark(r, s.self, mpjbuf.New(0)); err != nil {
					t.Fatal(err)
				}
				if err := awaitMark(s, r.self); err != nil {
					t.Fatal(err)
				}
			} else if _, err := r.Probe(s.self, rndvTag, 0); err != nil {
				t.Fatal(err) // the RTS is out; the checksum is held
			}
			failedBefore := s.core.Counters.RequestsFailed.Load()
			// The receiver crashes: its end of the pair's connection closes.
			r.queues[0].link().Close()
			waitUntil(t, "the sender to see the receiver die", func() bool { return s.PeerErr(r.self) != nil })
			close(release)

			var req xdev.Request
			select {
			case req = <-reqc:
			case <-time.After(10 * time.Second):
				t.Fatal("Isend still checksumming after 10s")
			}
			if req == nil {
				return
			}
			if err := waitReq(t, "rendezvous send", req); !errors.Is(err, xdev.ErrPeerLost) {
				t.Errorf("send completed with %v, want ErrPeerLost", err)
			}
			time.Sleep(10 * time.Millisecond) // room for a second completion
			if n := s.core.Counters.RequestsFailed.Load() - failedBefore; n != 1 {
				t.Errorf("%d failed completions, want exactly 1", n)
			}
			for _, d := range devs {
				d.Finish()
			}
			waitGoroutines(t, before)
		})
	}
}

// TestRndvSendCompletesOnlyAfterPayloadWritten: a rendezvous send does
// not complete before its payload frame is on the wire, whichever side
// posts it. With the sender's connection wedged, the sending thread
// (RTR first) stays inside Isend, and the handler's flusher (checksum
// first) leaves the request pending, until the write goes through.
func TestRndvSendCompletesOnlyAfterPayloadWritten(t *testing.T) {
	for _, order := range []handoff{rtrFirst, sumFirst} {
		t.Run(order.String(), func(t *testing.T) {
			devs := chaosJob(t, 2, nil)
			s, r := devs[0], devs[1]
			g := newGate()
			defer g.open()
			got := mpjbuf.New(0)
			recvc := make(chan error, 1)
			var req xdev.Request
			var err error
			switch order {
			case rtrFirst:
				release := make(chan struct{})
				holdChecksum(t, release)
				reqc := make(chan xdev.Request, 1)
				go func() {
					req, err := s.ISend(rndvPayload(), r.self, rndvTag, 0)
					if err != nil {
						t.Error(err)
					}
					reqc <- req
				}()
				rreq, err := answerThenMark(r, s.self, got)
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					_, err := rreq.Wait()
					recvc <- err
				}()
				if err := awaitMark(s, r.self); err != nil {
					t.Fatal(err)
				}
				g.wedge(s, 1)
				close(release)
				waitUntil(t, "the sending thread to write", func() bool { return s.writerHeld(1) && s.queued(1) == 0 })
				// No other request completes on s, so Peek returns only once
				// the send does.
				peekc := make(chan struct{})
				go func() {
					s.Peek()
					close(peekc)
				}()
				select {
				case <-reqc:
					t.Fatal("Isend returned with its payload write wedged")
				case <-peekc:
					t.Fatal("the send completed with its payload write wedged")
				case <-time.After(20 * time.Millisecond):
				}
				g.open()
				req = <-reqc
			case sumFirst:
				if req, err = s.ISend(rndvPayload(), r.self, rndvTag, 0); err != nil {
					t.Fatal(err)
				}
				g.wedge(s, 1)
				go func() {
					_, err := r.Recv(got, s.self, rndvTag, 0)
					recvc <- err
				}()
				waitUntil(t, "the flusher to write", func() bool { return s.writerHeld(1) && s.queued(1) == 0 })
				time.Sleep(20 * time.Millisecond)
				if done(req) {
					t.Fatal("the send completed with its payload write wedged")
				}
				g.open()
			}
			if err := waitReq(t, "rendezvous send", req); err != nil {
				t.Fatal(err)
			}
			if err := waitErr(t, "rendezvous receive", recvc); err != nil {
				t.Fatal(err)
			}
			checkRndvPayload(t, got)
		})
	}
}

package devcore

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"mpj/internal/match"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

func env(src uint64, tag, ctx int32) match.Concrete {
	return match.Concrete{Ctx: ctx, Tag: tag, Src: src}
}

func pat(src uint64, tag, ctx int32) match.Pattern {
	return match.Pattern{Ctx: ctx, Tag: tag, Src: src}
}

func TestMatchOrParkThenPostRecv(t *testing.T) {
	c := New("test")
	a := &Arrival{Src: 1, Tag: 7, Ctx: 0, WireLen: 8}
	if _, matched, err := c.MatchOrPark(env(1, 7, 0), a); matched || err != nil {
		t.Fatalf("MatchOrPark on empty core: matched=%v err=%v", matched, err)
	}
	if got := c.Counters.Unexpected.Load(); got != 1 {
		t.Fatalf("Unexpected = %d, want 1", got)
	}
	req := c.NewRequest(RecvReq, mpjbuf.New(0))
	got, err := c.PostRecv(pat(1, 7, 0), req, nil)
	if err != nil || got != a {
		t.Fatalf("PostRecv: arrival=%v err=%v, want the parked arrival", got, err)
	}
	// Consuming a parked arrival is not an arrival-time match.
	if m := c.Counters.Matched.Load(); m != 0 {
		t.Fatalf("Matched = %d, want 0", m)
	}
}

func TestPostRecvThenMatchOrPark(t *testing.T) {
	c := New("test")
	req := c.NewRequest(RecvReq, mpjbuf.New(0))
	if a, err := c.PostRecv(pat(match.AnySource, match.AnyTag, 0), req, nil); a != nil || err != nil {
		t.Fatalf("PostRecv on empty core: arrival=%v err=%v", a, err)
	}
	got, matched, err := c.MatchOrPark(env(2, 3, 0), &Arrival{Src: 2, Tag: 3})
	if err != nil || !matched || got != req {
		t.Fatalf("MatchOrPark: req=%v matched=%v err=%v", got, matched, err)
	}
	if m := c.Counters.Matched.Load(); m != 1 {
		t.Fatalf("Matched = %d, want 1", m)
	}
}

func TestPostedOrderAcrossBuckets(t *testing.T) {
	// MPI ordering: the first-posted matching receive wins even when
	// the earlier one is a wildcard in a different bucket.
	c := New("test")
	wild := c.NewRequest(RecvReq, nil)
	exact := c.NewRequest(RecvReq, nil)
	c.PostRecv(pat(match.AnySource, match.AnyTag, 0), wild, nil)
	c.PostRecv(pat(4, 9, 0), exact, nil)
	got, matched, _ := c.MatchOrPark(env(4, 9, 0), &Arrival{Src: 4, Tag: 9})
	if !matched || got != wild {
		t.Fatalf("first arrival matched %p, want the earlier wildcard %p", got, wild)
	}
	got, matched, _ = c.MatchOrPark(env(4, 9, 0), &Arrival{Src: 4, Tag: 9})
	if !matched || got != exact {
		t.Fatalf("second arrival matched %p, want the exact receive %p", got, exact)
	}
}

func TestFailPeerStickyAndPinned(t *testing.T) {
	c := New("test")
	boom := errors.New("boom")
	pinnedByPattern := c.NewRequest(RecvReq, nil)
	pinnedByAdvisory := c.NewRequest(RecvReq, nil)
	pinnedByAdvisory.Pin = 3
	wildcard := c.NewRequest(RecvReq, nil)
	c.PostRecv(pat(3, 1, 0), pinnedByPattern, nil)
	c.PostRecv(pat(match.AnySource, 2, 0), pinnedByAdvisory, nil)
	c.PostRecv(pat(match.AnySource, 3, 0), wildcard, nil)
	// A buffered payload from the peer stays deliverable; its
	// rendezvous announcement does not.
	c.MatchOrPark(env(3, 10, 0), &Arrival{Src: 3, Tag: 10, Data: []byte{1}})
	c.MatchOrPark(env(3, 11, 0), &Arrival{Src: 3, Tag: 11, Rndv: true})

	if !c.FailPeer(3, PeerFail{Err: boom, Sticky: true}) {
		t.Fatal("first FailPeer returned false")
	}
	if c.FailPeer(3, PeerFail{Err: boom, Sticky: true}) {
		t.Fatal("second sticky FailPeer not idempotent")
	}
	for _, r := range []*Request{pinnedByPattern, pinnedByAdvisory} {
		if _, err := r.Wait(); !errors.Is(err, boom) {
			t.Fatalf("pinned receive err = %v, want boom", err)
		}
	}
	if wildcard.Done() {
		t.Fatal("wildcard receive failed; should stay posted")
	}
	if err := c.PeerErr(3); !errors.Is(err, boom) {
		t.Fatalf("PeerErr = %v, want boom", err)
	}
	// The buffered payload still matches; the rndv announcement is gone.
	if _, _, err := c.IProbe(pat(3, 11, 0), "iprobe"); !errors.Is(err, boom) {
		t.Fatalf("probe for dropped rndv = %v, want boom (dead-pinned)", err)
	}
	rr := c.NewRequest(RecvReq, nil)
	if a, err := c.PostRecv(pat(3, 10, 0), rr, nil); err != nil || a == nil || a.Tag != 10 {
		t.Fatalf("buffered payload from dead peer: a=%v err=%v", a, err)
	}
	// New receives pinned on the dead peer fail fast.
	if _, err := c.PostRecv(pat(3, 1, 0), c.NewRequest(RecvReq, nil), nil); !errors.Is(err, boom) {
		t.Fatalf("PostRecv pinned on dead peer err = %v, want boom", err)
	}
	if got := c.Counters.PeersLost.Load(); got != 1 {
		t.Fatalf("PeersLost = %d, want 1", got)
	}
}

func TestFailPeerGracefulNonSticky(t *testing.T) {
	c := New("test")
	gone := errors.New("gone")
	if !c.FailPeer(5, PeerFail{Err: gone, Graceful: true}) {
		t.Fatal("FailPeer returned false")
	}
	if got := c.Counters.PeersLost.Load(); got != 0 {
		t.Fatalf("graceful departure counted as loss: PeersLost = %d", got)
	}
	if err := c.PeerErr(5); err != nil {
		t.Fatalf("non-sticky failure recorded: %v", err)
	}
	// Non-sticky: the slot is usable again.
	if _, err := c.PostRecv(pat(5, 0, 0), c.NewRequest(RecvReq, nil), nil); err != nil {
		t.Fatalf("PostRecv after non-sticky failure: %v", err)
	}
}

func TestShutdownDrainsEverything(t *testing.T) {
	c := New("test")
	closedErr := errors.New("closed")
	syncErr := errors.New("sync fail")
	posted := c.NewRequest(RecvReq, nil)
	c.PostRecv(pat(1, 1, 0), posted, nil)
	pend := c.NewPendingSet("test")
	pending := c.NewRequest(SendReq, nil)
	if err := pend.Add(PendingKey{Peer: 2, Seq: 1}, pending); err != nil {
		t.Fatalf("PendingSet.Add: %v", err)
	}
	syncSender := c.NewRequest(SendReq, nil)
	c.MatchOrPark(env(0, 5, 0), &Arrival{Src: 0, Tag: 5, Sync: true, SyncReq: syncSender})

	if !c.Shutdown(closedErr, syncErr) {
		t.Fatal("Shutdown returned false")
	}
	if c.Shutdown(closedErr, syncErr) {
		t.Fatal("second Shutdown not idempotent")
	}
	if _, err := posted.Wait(); !errors.Is(err, closedErr) {
		t.Fatalf("posted receive err = %v", err)
	}
	if _, err := pending.Wait(); !errors.Is(err, closedErr) {
		t.Fatalf("pending send err = %v", err)
	}
	if _, err := syncSender.Wait(); !errors.Is(err, syncErr) {
		t.Fatalf("parked sync sender err = %v", err)
	}
	// The completion queue is poisoned once drained.
	deadline := time.After(5 * time.Second)
	for {
		r, err := c.Peek()
		if err != nil {
			break
		}
		c.cq.Collect(r)
		select {
		case <-deadline:
			t.Fatal("Peek never poisoned")
		default:
		}
	}
	// Post-shutdown operations fail with the closed shape.
	if _, _, err := c.MatchOrPark(env(1, 1, 0), &Arrival{Src: 1, Tag: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("MatchOrPark after shutdown err = %v, want ErrClosed", err)
	}
	if _, err := c.PostRecv(pat(1, 1, 0), c.NewRequest(RecvReq, nil), nil); !errors.Is(err, xdev.ErrDeviceClosed) {
		t.Fatalf("PostRecv after shutdown err = %v, want device-closed", err)
	}
	if err := pend.Add(PendingKey{Peer: 2, Seq: 2}, c.NewRequest(SendReq, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("PendingSet.Add after shutdown err = %v, want ErrClosed", err)
	}
}

func TestAbortPreemptsClosedShape(t *testing.T) {
	c := New("test")
	ab := errors.New("abort cause")
	c.SetAborted(ab)
	c.Shutdown(ab, ab)
	if err := c.SendGate("isend", 0, 0); !errors.Is(err, ab) {
		t.Fatalf("SendGate = %v, want abort cause", err)
	}
	if _, err := c.Peek(); !errors.Is(err, ab) {
		t.Fatalf("Peek = %v, want abort cause", err)
	}
	if _, _, err := c.MatchOrPark(env(0, 0, 0), &Arrival{}); !errors.Is(err, ab) {
		t.Fatalf("MatchOrPark = %v, want abort cause", err)
	}
}

// SendGate's precedence: abort, then closed, then dead peer, then
// revoked context.
func TestSendGatePrecedence(t *testing.T) {
	c := New("test")
	if err := c.SendGate("isend", 3, 5); err != nil {
		t.Fatalf("live core: %v", err)
	}
	revoked, dead, ab := errors.New("revoked"), errors.New("dead"), errors.New("abort")
	c.RevokeContext(5, revoked)
	if err := c.SendGate("isend", 3, 5); err != revoked {
		t.Fatalf("revoked context: %v", err)
	}
	c.FailPeer(3, PeerFail{Err: dead, Sticky: true})
	if err := c.SendGate("isend", 3, 5); err != dead {
		t.Fatalf("dead peer on a revoked context: %v", err)
	}
	if err := c.SendGate("isend", 4, 6); err != nil {
		t.Fatalf("live peer and context: %v", err)
	}
	c.Shutdown(ErrClosed, ErrClosed)
	if err := c.SendGate("isend", 3, 5); !errors.Is(err, xdev.ErrDeviceClosed) {
		t.Fatalf("closed core: %v", err)
	}
	c.SetAborted(ab)
	if err := c.SendGate("isend", 3, 5); err != ab {
		t.Fatalf("aborted core: %v", err)
	}
}

// With one P a waiter parks at once: yielding would only requeue it
// ahead of the input handler that is to complete it. The test goroutine
// yields at most twice before the waiter's park channel must exist, and
// Complete reports the wake.
func TestWaitParksFirstOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := New("test")
	r := c.NewRequest(RecvReq, nil)
	done := make(chan struct{})
	go func() {
		r.Wait()
		close(done)
	}()
	for yields := 0; r.state.Load() == nil; yields++ {
		if yields == 2 {
			r.Complete(xdev.Status{}, nil)
			<-done
			t.Fatal("waiter still unparked after 2 yields on one P")
		}
		runtime.Gosched()
	}
	if !r.Complete(xdev.Status{}, nil) {
		t.Error("Complete did not report waking the parked waiter")
	}
	<-done
	if r2 := c.NewRequest(SendReq, nil); r2.Complete(xdev.Status{}, nil) {
		t.Error("Complete reported a wake with nobody waiting")
	}
}

func TestProbeWakesOnArrival(t *testing.T) {
	c := New("test")
	got := make(chan Envelope, 1)
	errc := make(chan error, 1)
	go func() {
		a, err := c.Probe(pat(match.AnySource, match.AnyTag, 0), "probe")
		got <- a
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	want := &Arrival{Src: 2, Tag: 6}
	c.MatchOrPark(env(2, 6, 0), want)
	select {
	case a := <-got:
		if err := <-errc; err != nil || a != want.envelope() {
			t.Fatalf("Probe: a=%v err=%v", a, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Probe never woke")
	}
}

func TestPendingSetFailFastOnDeadPeer(t *testing.T) {
	c := New("test")
	boom := errors.New("boom")
	c.FailPeer(7, PeerFail{Err: boom, Sticky: true})
	pend := c.NewPendingSet("test")
	if err := pend.Add(PendingKey{Peer: 7, Seq: 1}, c.NewRequest(SendReq, nil)); !errors.Is(err, boom) {
		t.Fatalf("Add keyed on dead peer err = %v, want boom", err)
	}
	if err := pend.Add(PendingKey{Peer: 8, Seq: 1}, c.NewRequest(SendReq, nil)); err != nil {
		t.Fatalf("Add keyed on live peer err = %v", err)
	}
	r, ok := pend.Take(PendingKey{Peer: 8, Seq: 1})
	if !ok || r == nil {
		t.Fatal("Take lost the parked request")
	}
	if _, ok := pend.Take(PendingKey{Peer: 8, Seq: 1}); ok {
		t.Fatal("double Take succeeded")
	}
}

func TestSlicePoolRoundTrip(t *testing.T) {
	for _, n := range []int{1, 40, 64, 65, 4096, 1 << 20, 1<<20 + 1} {
		b := GetSlice(n)
		if len(b) != n {
			t.Fatalf("GetSlice(%d) len = %d", n, len(b))
		}
		PutSlice(b)
	}
	// Reused slices keep their class capacity.
	a := GetSlice(100)
	for i := range a {
		a[i] = 0xAA
	}
	PutSlice(a)
	b := GetSlice(130)
	if cap(b) != cap(a) {
		t.Fatalf("expected class capacity %d, got %d", cap(a), cap(b))
	}
}

func TestBufferPoolReset(t *testing.T) {
	b := GetBuffer()
	if err := b.WriteInts([]int32{1, 2, 3}, 0, 3); err != nil {
		t.Fatal(err)
	}
	b.Commit()
	PutBuffer(b)
	c := GetBuffer()
	if c.Len() != 0 {
		t.Fatalf("pooled buffer not reset: Len=%d", c.Len())
	}
	if err := c.WriteInts([]int32{9}, 0, 1); err != nil {
		t.Fatalf("pooled buffer not writable: %v", err)
	}
	PutBuffer(c)
}

// completeHeld runs r.Complete on its own goroutine and holds it inside
// the window between the completion-queue push and the flag flip until
// release is called; done closes when Complete returns.
func completeHeld(t *testing.T, r *Request, st xdev.Status) (release func(), done <-chan struct{}) {
	entered, hold, fin := make(chan struct{}), make(chan struct{}), make(chan struct{})
	betweenPushAndFlip = func() {
		close(entered)
		<-hold
	}
	t.Cleanup(func() { betweenPushAndFlip = func() {} })
	go func() {
		r.Complete(st, nil)
		close(fin)
	}()
	<-entered
	return func() { close(hold) }, fin
}

// untilReturnedOrParked waits until a call has returned or has parked
// on r's wake channel (or blocks elsewhere for a second), and reports
// whether it returned.
func untilReturnedOrParked(r *Request, returned <-chan struct{}) bool {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); runtime.Gosched() {
		select {
		case <-returned:
			return true
		default:
		}
		if r.state.Load() != nil {
			return false
		}
	}
	return false
}

// TestCompletionWindow drives a Wait and a Peek into Complete's window
// between queueing a request and flipping its flag.
// A request Wait has handed back must not stay queued for a later
// Peek, and a request Peek hands back must already read as complete
// with its real status — mpjdev's WaitAny reads it through Test.
func TestCompletionWindow(t *testing.T) {
	want := xdev.Status{Tag: 9, Bytes: 3}
	t.Run("Wait", func(t *testing.T) {
		c := New("test")
		r := c.NewRequest(RecvReq, nil)
		release, done := completeHeld(t, r, want)
		returned := make(chan struct{})
		var got xdev.Status
		go func() {
			got, _ = r.Wait()
			close(returned)
		}()
		untilReturnedOrParked(r, returned)
		release()
		<-returned
		<-done
		if got != want {
			t.Fatalf("Wait status = %+v, want %+v", got, want)
		}
		if n := c.cq.Len(); n != 0 {
			t.Fatalf("%d completions still queued after Wait returned the request", n)
		}
		if p, ok, _ := c.cq.TryPeek(); ok {
			t.Fatalf("Peek returned %p after Wait had collected it", p)
		}
	})
	t.Run("Peek", func(t *testing.T) {
		c := New("test")
		r := c.NewRequest(RecvReq, nil)
		release, done := completeHeld(t, r, want)
		returned := make(chan struct{})
		var popped *Request
		go func() {
			popped, _ = c.Peek()
			close(returned)
		}()
		if untilReturnedOrParked(r, returned) {
			st, ok, _ := popped.Test()
			release()
			<-done
			t.Fatalf("Peek returned the request before its flag flipped: Test = %+v, %v", st, ok)
		}
		release()
		<-returned
		<-done
		if st, ok, err := popped.Test(); popped != r || !ok || err != nil || st != want {
			t.Fatalf("Peek = %p (want %p), Test = %+v, %v, %v", popped, r, st, ok, err)
		}
	})
}

// A blocking request never reaches the completion queue, so no Peek can
// hand it out after its Wait recycled it; a nonblocking one still does.
func TestRecycleBlockingRequestSkipsQueue(t *testing.T) {
	c := New("test")
	want := xdev.Status{Tag: 4, Bytes: 8}
	r := c.NewBlockingRequest(RecvReq, nil)
	if r.Complete(want, nil) {
		t.Error("Complete reported a wake with nobody waiting")
	}
	if n := c.cq.Len(); n != 0 {
		t.Fatalf("a blocking completion queued %d entries", n)
	}
	if st, err := r.Wait(); st != want || err != nil {
		t.Fatalf("Wait = %+v, %v; want %+v", st, err, want)
	}
	nb := c.NewRequest(RecvReq, nil)
	nb.Complete(want, nil)
	if p, ok, _ := c.cq.TryPeek(); !ok || p != nb {
		t.Fatalf("nonblocking completion: TryPeek = %p, %v; want %p", p, ok, nb)
	}
}

// A claim-armed request is never recycled: the other core's stale copy
// still points at it.
func TestRecycleSkipsClaimArmed(t *testing.T) {
	c := New("test")
	r := c.NewBlockingRequest(RecvReq, nil)
	r.EnableClaim()
	r.Complete(xdev.Status{}, nil)
	r.Wait()
	if r.c != c || !r.Done() {
		t.Fatal("Wait reset a claim-armed request for reuse")
	}
}

// Completer and waiter race on fresh pooled requests, the waiter
// recycling each as soon as its Wait returns, parked or not. Under -race
// a Complete that touched the request after publishing its completion
// is reported against the recycling write.
func TestRecycleCompleterNeverTouchesWaitedRequest(t *testing.T) {
	c := New("test")
	for i := 0; i < 2000; i++ {
		r := c.NewBlockingRequest(SendReq, nil)
		r.Trace(1, 2, 3) // Complete closes a traced span: more of r to read
		st := xdev.Status{Tag: i}
		go r.Complete(st, nil)
		if got, err := r.Wait(); got != st || err != nil {
			t.Fatalf("round %d: Wait = %+v, %v", i, got, err)
		}
	}
	if n := c.cq.Len(); n != 0 {
		t.Fatalf("%d blocking completions queued", n)
	}
}

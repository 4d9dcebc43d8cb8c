package mpjdev

import (
	"fmt"
	"slices"
	"sync"

	"mpj/internal/mpe"
	"mpj/internal/xdev"
)

// This file implements the multi-threaded Waitany of paper §IV-E.1.
//
// A straightforward Waitany polls its request array, starving any
// computation running in parallel. MPJ Express instead builds Waitany
// on the device's blocking peek(): each WaitAny object references its
// Request objects and each Request carries (as its attachment) a
// reference back to the WaitAny that is waiting on it. WaitAny objects
// queue per device; the front of the queue is the only caller blocked
// in peek(). When peek returns the most recently completed request,
// three scenarios arise, handled exactly as the paper describes:
//
//  1. the request belongs to the peeking WaitAny — it returns, first
//     waking the next queued WaitAny to take over peek duty;
//  2. the request belongs to another queued WaitAny — that object is
//     removed from the queue and woken, and the peeker keeps peeking;
//  3. the request belongs to no WaitAny — it is ignored.
//
// The queue exists so that a blocked Waitany burns no CPU, and only a
// call that must block pays for it: WaitAny tests first and returns a
// request that has already completed with no allocation, attachment or
// queue traffic. Only when none has does it attach, test once more and
// join the queue. Under a record/replay session every call goes
// through peek (see WaitAny).

// replayActive is implemented by devices that can host a record/replay
// session (internal/replay). While a session is installed, WaitAny
// must not consume completions through a Test scan.
type replayActive interface {
	ReplayActive() bool
}

// waitAnyRef is the attachment a Request carries while a WaitAny waits
// on it: the WaitAny object, a copy of the request and its index in the
// array. It holds the request by value rather than through the
// caller's array, which may be reused once the call returns while a
// peeker still holds the reference.
type waitAnyRef struct {
	w   *waitAny
	req Request
	idx int
}

// waitAny is one blocked Waitany call.
type waitAny struct {
	refs []waitAnyRef // one per non-nil request; the attachments

	done    chan struct{} // closed on delivery
	promote chan struct{} // signaled when this object must take over peek

	// Delivery results, written before done is closed.
	idx int
	st  Status
	err error

	delivered bool // guarded by the owning queue's mutex
}

// attach makes a waitAny for the non-nil requests of reqs and makes
// each of them point back at it, so a completion popped by any peeker
// from now on reaches it. Every request must be on dev: the span check
// is made here, on the blocking path, where every request is visited
// anyway, and before anything is attached.
func attach[R any](reqs []R, req func(R) *Request, dev xdev.Device) (*waitAny, error) {
	w := &waitAny{
		refs:    make([]waitAnyRef, 0, len(reqs)), // never grows: the pointers stay valid
		done:    make(chan struct{}),
		promote: make(chan struct{}, 1),
	}
	for i, r := range reqs {
		if x := req(r); x != nil {
			if x.comm.dev != dev {
				return nil, fmt.Errorf("mpjdev: Waitany requests span devices")
			}
			w.refs = append(w.refs, waitAnyRef{w: w, req: *x, idx: i})
		}
	}
	for i := range w.refs {
		w.refs[i].req.inner.SetAttachment(&w.refs[i])
	}
	return w, nil
}

// detach removes the attachments attach set.
func (w *waitAny) detach() {
	for i := range w.refs {
		w.refs[i].req.inner.SetAttachment(nil)
	}
}

// waitQueue is the per-device WaitanyQue of the paper.
type waitQueue struct {
	mu   sync.Mutex
	list []*waitAny
}

var waitQueues = struct {
	sync.Mutex
	m map[xdev.Device]*waitQueue
}{m: make(map[xdev.Device]*waitQueue)}

func queueFor(dev xdev.Device) *waitQueue {
	waitQueues.Lock()
	defer waitQueues.Unlock()
	q := waitQueues.m[dev]
	if q == nil {
		q = &waitQueue{}
		waitQueues.m[dev] = q
	}
	return q
}

// enqueue appends w and reports whether it is now the front (and must
// take peek duty). If another Waitany's peek already delivered to w —
// possible between attachment and enqueue — w is not added and
// alreadyDone reports it, preserving the one-peeker-per-queue
// invariant.
func (q *waitQueue) enqueue(w *waitAny) (isPeeker, alreadyDone bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if w.delivered {
		return false, true
	}
	q.list = append(q.list, w)
	return len(q.list) == 1, false
}

// deliver marks w complete with the given result, removes it from the
// queue, and wakes its caller. It reports false if w had already been
// delivered (stale completion; ignore).
func (q *waitQueue) deliver(w *waitAny, idx int, st Status, err error) bool {
	q.mu.Lock()
	if w.delivered {
		q.mu.Unlock()
		return false
	}
	w.delivered = true
	for i, x := range q.list {
		if x == w {
			q.list = append(q.list[:i], q.list[i+1:]...)
			break
		}
	}
	q.mu.Unlock()
	w.idx, w.st, w.err = idx, st, err
	close(w.done)
	return true
}

// promoteFront signals the current front of the queue to take over peek
// duty.
func (q *waitQueue) promoteFront() {
	q.mu.Lock()
	var front *waitAny
	if len(q.list) > 0 {
		front = q.list[0]
	}
	q.mu.Unlock()
	if front != nil {
		select {
		case front.promote <- struct{}{}:
		default: // already promoted
		}
	}
}

// WaitAny blocks until one of the non-nil requests completes and
// returns its index and status. Unlike a polling implementation it
// consumes no CPU while blocked, so computation in other goroutines
// proceeds at full speed (the property §V-A measures).
func WaitAny(reqs []*Request) (int, Status, error) { return WaitAnyOf(reqs, self) }

// WaitAnyOf is WaitAny over an array of the layer above's requests, as
// TestAnyOf. A request that has already completed comes back after one
// Test per request up to it; the array is visited again, to check that
// it stays on one device and to attach, only when the call must block.
func WaitAnyOf[R any](reqs []R, req func(R) *Request) (int, Status, error) {
	first := slices.IndexFunc(reqs, func(r R) bool { return req(r) != nil })
	if first < 0 {
		return -1, Status{}, ErrNoActiveRequests
	}
	dev := req(reqs[first]).comm.dev

	// Test first: a request that has already completed comes back
	// before anything is allocated or attached — the common case when
	// WaitAny drains posted receives that traffic keeps satisfying.
	// Skipped under record/replay: whether a completion beats WaitAny is
	// a timing race, so a scan would make the pop-decision stream's
	// length depend on scheduling — routing every delivery through Peek
	// keeps the recorded and replayed streams the same length.
	ra, ok := dev.(replayActive)
	scan := !ok || !ra.ReplayActive()
	if scan {
		if i, st, ok, err := TestAnyOf(reqs, req); ok || err != nil {
			return i, st, err
		}
	}

	// Register to block. A completion that landed after the scan but
	// before its attachment may already have been popped by a peeker
	// that found nothing attached (scenario 3), so scan once more: from
	// here on a completion is either seen by this scan or reaches us
	// through peek.
	w, err := attach(reqs, req, dev)
	if err != nil {
		return -1, Status{}, err
	}
	if scan {
		if i, st, ok, err := TestAnyOf(reqs, req); ok || err != nil {
			w.detach()
			return i, st, err
		}
	}

	// The slow path parks on the device's peek queue; record the park
	// and, on return, the park-to-wake span.
	rec := mpe.RecorderOf(dev)
	if rec.Enabled() {
		parked := rec.Now()
		rec.Event(mpe.WaitanyPark, -1, int32(len(reqs)), -1, 0)
		defer func() {
			rec.Span(mpe.WaitanyWake, -1, int32(len(reqs)), -1, 0, parked)
		}()
	}

	q := queueFor(dev)
	isPeeker, alreadyDone := q.enqueue(w)
	if alreadyDone {
		// A racing peek delivered our completion before we joined the
		// queue (the window between attach and enqueue). The results are
		// published before done closes, so synchronize on it.
		<-w.done
		w.detach()
		return w.idx, w.st, w.err
	}

	for {
		if !isPeeker {
			select {
			case <-w.done:
				w.detach()
				return w.idx, w.st, w.err
			case <-w.promote:
				isPeeker = true
			}
			continue
		}
		// Peek duty (front of the WaitanyQue).
		xr, err := dev.Peek()
		if err != nil {
			// Device shut down, or it has no completion queue (ibisdev):
			// fail ourselves and pass duty on.
			q.deliver(w, -1, Status{}, err)
			q.promoteFront()
			w.detach()
			return w.idx, w.st, w.err
		}
		ref, ok := xr.Attachment().(*waitAnyRef)
		if !ok {
			continue // scenario 3: nobody is waiting on this request
		}
		st, _, terr := ref.req.Test()
		if !q.deliver(ref.w, ref.idx, st, terr) {
			continue // stale: that WaitAny already returned
		}
		if ref.w == w {
			// Scenario 1: our own request completed; wake the next
			// WaitAny to take over peeking.
			q.promoteFront()
			w.detach()
			return w.idx, w.st, w.err
		}
		// Scenario 2: keep peeking on behalf of the queue.
	}
}

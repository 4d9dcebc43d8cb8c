package devcore

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/replay"
	"mpj/internal/xdev"
)

// Kind distinguishes send from receive requests; completion spans are
// recorded as SendEnd or RecvMatched accordingly.
type Kind uint8

// Request kinds.
const (
	SendReq Kind = iota
	RecvReq
)

// Request is the core's request object. It implements xdev.Request
// directly — a request is completed exactly once; completion places it
// on the core's completion queue where it stays until collected by
// Wait, Test or Peek (the Myrinet eXpress completion-queue discipline
// that makes peek() possible). A blocking call's request
// (NewBlockingRequest) is the exception: nothing but its own Wait can
// name it, so it skips the queue and is recycled once waited.
type Request struct {
	c *Core

	// Buf is the message buffer: the user's receive buffer for
	// receives, the packed send buffer for sends.
	Buf *mpjbuf.Buffer

	// SendTag and SendCtx label a rendezvous send so the data header
	// can repeat the envelope for the receiver's status.
	SendTag int32
	SendCtx int32

	// RndvLen is, on a receive that answered a rendezvous announcement,
	// the wire length the announcement promised; the data frame must
	// repeat it.
	RndvLen int

	// RndvCRC is a rendezvous send's payload checksum, computed by the
	// sending thread while its handshake is in flight. rndvSteps counts
	// the two events the data frame waits for — that checksum done and
	// READY_TO_RECV in — so whichever comes second posts it (RndvStep).
	RndvCRC   uint32
	rndvSteps atomic.Uint32

	// Pin is the slot a receive is pinned on when that is not
	// expressible in the match pattern (mxsim's IRecvFrom advisory,
	// where match bits and sender identity are independent); -1 when
	// unpinned. FailPeer fails receives pinned on the lost slot.
	Pin int64

	// OpCtx is the matching context the operation runs on, stamped by
	// the device so RevokeContext can drain pending-set entries by
	// context; NoCtx when the device did not stamp one.
	OpCtx int32

	// Owner is an optional device-side wrapper back-pointer for devices
	// that cannot return the core request directly (mxsim returns its
	// own Request type).
	Owner any

	// Tracing envelope: the operation's start time (recorder clock),
	// peer slot, tag, and context, set at creation when tracing is on
	// so Complete can close the SendEnd/RecvMatched span. t0 < 0 means
	// untraced. seq is the message's per-sender sequence number — the
	// cross-rank correlation key the completion span carries.
	t0   int64
	peer int32
	tag  int32
	ctx  int32
	seq  uint64

	// Replay identity: the request's envelope as the record/replay
	// subsystem keys it. Unlike the tracing envelope above it is not
	// gated on tracing being enabled — it is stamped whenever a replay
	// session is active (sends at creation via SetReplayID, receives at
	// PostRecv and re-stamped at match). rPeer is -1 for an unresolved
	// ANY_SOURCE receive.
	rPeer int64
	rTag  int32
	rCtx  int32
	rSeq  uint64

	// wdec is the open wildcard decision for a wildcard receive,
	// resolved (record) or verified (replay) when the request matches.
	wdec *replay.Wildcard

	mu         sync.Mutex
	attachment any

	// state is the one completion word: nil while pending, done once
	// complete, and otherwise the wake channel of a waiter parked in
	// Wait. status and err are written before Complete swaps in done, so
	// a load observing done may read them without further
	// synchronization. The channel is allocated by the first waiter that
	// actually has to block: a request that completes before anyone
	// waits on it — a niodev send whose frame the caller wrote itself —
	// never allocates or closes one.
	state  atomic.Pointer[chan struct{}]
	status xdev.Status
	err    error

	// cqSlot is the completion queue's intrusive membership flag,
	// owned by cqueue under its lock (see cqueue.Entry).
	cqSlot bool
	// blocking marks a request made by NewBlockingRequest: never
	// queued, and recycled by its Wait.
	blocking bool
	kind     Kind // cqSlot, blocking and kind share one padded word
}

// done is the completion word's "complete" value; no waiter ever
// parks on it.
var done = new(chan struct{})

// CQSlot implements cqueue.Entry.
func (r *Request) CQSlot() *bool { return &r.cqSlot }

// NewRequest returns a fresh, incomplete request on this core.
func (c *Core) NewRequest(kind Kind, buf *mpjbuf.Buffer) *Request {
	return &Request{c: c, kind: kind, Buf: buf, t0: -1, Pin: -1, OpCtx: NoCtx}
}

var requestPool = sync.Pool{New: func() any { return new(Request) }}

// NewBlockingRequest returns an incomplete request for a blocking call
// (Send, Ssend, Recv) from a pool. No Peek or WaitAny can name such a
// request, so its completion skips the completion queue, and its Wait
// hands it back to the pool: the caller must not touch it after Wait
// returns, and anything else holding it must let go before completing
// it.
func (c *Core) NewBlockingRequest(kind Kind, buf *mpjbuf.Buffer) *Request {
	r := requestPool.Get().(*Request)
	r.c, r.kind, r.Buf, r.t0, r.Pin, r.OpCtx = c, kind, buf, -1, -1, NoCtx
	r.blocking = true
	return r
}

// recycle resets a waited blocking request and returns it to the pool.
func (r *Request) recycle() {
	*r = Request{}
	requestPool.Put(r)
}

// waitSpin is how many scheduler yields Wait burns before allocating a
// park channel and blocking, on a process with more than one P: there
// another M polls the network and other goroutines (in-process ranks,
// input handlers) run while this one yields, so a completion can land
// inside the spin and save a park and a wake. With one P a yield only
// requeues the waiter — the scheduler runs queued goroutines before it
// polls the network — so the spin would hold back the very input
// handler that completes it; Core.spin turns it off there (DESIGN.md §7).
const waitSpin = 64

// await blocks until the request completes: fast-path check, the yield
// spin where it can see progress, then park on a channel published into
// the completion word. The word only moves nil → channel → done or
// nil → done, so a channel that got in is one Complete's swap takes out
// and closes: a wake is never lost.
func (r *Request) await() {
	if r.state.Load() == done {
		return
	}
	for i := 0; r.c.spin && i < waitSpin; i++ {
		runtime.Gosched()
		if r.state.Load() == done {
			return
		}
	}
	ch := r.state.Load()
	if ch == nil {
		nc := make(chan struct{})
		if r.state.CompareAndSwap(nil, &nc) {
			ch = &nc
		} else {
			ch = r.state.Load() // completed, or another waiter parked first
		}
	}
	if ch != done {
		<-*ch
	}
}

// Trace stamps the request with its tracing envelope (recorder clock
// start, peer slot, tag, context). Only call when tracing is on.
func (r *Request) Trace(peer, tag, ctx int32) {
	r.t0 = r.c.rec.Now()
	r.peer, r.tag, r.ctx = peer, tag, ctx
}

// SetSeq stamps the sequence number on an already-traced request —
// the send side uses it when the seq is drawn after request creation.
// No-op when untraced.
func (r *Request) SetSeq(seq uint64) {
	if r.t0 >= 0 {
		r.seq = seq
	}
}

// SetReplayID stamps the replay envelope on a send request. Devices
// call it at creation when a record/replay session is active, with the
// same deterministic seq they drew from NextSeqSend.
func (r *Request) SetReplayID(peer int64, tag, ctx int32, seq uint64) {
	r.rPeer, r.rTag, r.rCtx, r.rSeq = peer, tag, ctx, seq
}

// RndvStep records one of the two events a rendezvous send's data frame
// waits for and reports whether it was the second. The atomic orders
// RndvCRC, written before the sending thread's step, before whichever
// side posts reads it.
func (r *Request) RndvStep() bool { return r.rndvSteps.Add(1) == 2 }

// popKey is the request's completion identity in the recorded pop
// order: creating core, direction, and replay envelope.
func (r *Request) popKey() replay.PopKey {
	op := "send"
	if r.kind == RecvReq {
		op = "recv"
	}
	return replay.PopKey{
		Dev: r.c.dev, Op: op,
		Src: r.rPeer, Tag: int64(r.rTag), Ctx: int64(r.rCtx), Seq: r.rSeq,
	}
}

// stampMatch rewrites a traced receive's envelope with the matched
// message's actual source and sequence number. Receives posted with
// ANY_SOURCE carry the wildcard as peer until the match resolves it;
// the seq only exists on the sender's side of the wire until now.
func (r *Request) stampMatch(src uint64, seq uint64) {
	if r == nil || r.t0 < 0 {
		return
	}
	r.peer = int32(src)
	r.seq = seq
}

// Complete records the outcome and publishes the request to its core's
// completion queue. It is safe to call at most once; the ownership-
// transfer discipline (whoever removes a request from a shared set
// completes it) guarantees that. It reports whether it woke a waiter
// parked in Wait.
func (r *Request) Complete(st xdev.Status, err error) bool {
	if err != nil {
		r.c.Counters.RequestsFailed.Add(1)
	}
	if r.t0 >= 0 {
		typ := mpe.SendEnd
		if r.kind == RecvReq {
			typ = mpe.RecvMatched
		}
		r.c.rec.SpanSeq(typ, r.peer, r.tag, r.ctx, int64(st.Bytes), r.t0, r.seq)
	}
	r.status = st
	r.err = err
	// Queue, then flip: a Wait or Test that sees the flag collects a
	// request already queued, so it cannot stay behind for a later Peek.
	// A peeker can pop it before the flip; Core.Peek awaits the flip
	// before handing it out, so the status it reads is this one.
	if !r.blocking {
		r.c.cq.Push(r)
		betweenPushAndFlip()
	}
	// From the swap on the request belongs to its waiter, which may
	// recycle it as soon as it sees done: nothing here touches r again.
	// A channel swapped out is a waiter still blocked on it.
	ch := r.state.Swap(done)
	if ch == nil {
		return false
	}
	close(*ch)
	return true
}

// betweenPushAndFlip runs in Complete after the push and before the
// flag flips; tests replace it to hold a completion in that window.
var betweenPushAndFlip = func() {}

// Done reports (without blocking) whether the request has completed.
func (r *Request) Done() bool {
	return r.state.Load() == done
}

// Err returns the completion error; only valid after completion.
func (r *Request) Err() error { return r.err }

// Status returns the completion status; only valid after completion.
func (r *Request) Status() xdev.Status { return r.status }

// Wait blocks until the request completes. A blocking request goes
// back to the pool here.
func (r *Request) Wait() (xdev.Status, error) {
	r.await()
	if r.blocking {
		st, err := r.status, r.err
		r.recycle()
		return st, err
	}
	r.c.cq.Collect(r)
	return r.status, r.err
}

// Test reports whether the request has completed, without blocking.
func (r *Request) Test() (xdev.Status, bool, error) {
	if r.state.Load() == done {
		if !r.blocking {
			r.c.cq.Collect(r)
		}
		return r.status, true, r.err
	}
	return xdev.Status{}, false, nil
}

// SetAttachment stores opaque upper-layer state on the request.
func (r *Request) SetAttachment(v any) {
	r.mu.Lock()
	r.attachment = v
	r.mu.Unlock()
}

// Attachment returns the value stored by SetAttachment.
func (r *Request) Attachment() any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attachment
}

var _ xdev.Request = (*Request)(nil)

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
// that makes peek() possible).
type Request struct {
	c    *Core
	kind Kind

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

	// wdec is the open wildcard decision for a wildcard receive; cdec
	// the dual-post arbitration decision hybriddev attached. Either is
	// resolved (record) or verified (replay) when the request matches.
	wdec *replay.Wildcard
	cdec *replay.Claim

	// claim arbitrates ownership of a request posted into more than
	// one core at once (hybriddev's ANY_SOURCE dual-posting): whichever
	// side removes the request from a shared set must win TryClaim
	// before delivering, and the loser discards its stale copy. Nil —
	// the single-core case — means TryClaim always succeeds.
	claim *atomic.Bool

	mu         sync.Mutex
	attachment any

	// state is the completion flag (0 incomplete, 1 complete); status
	// and err are published before it flips, so a load observing 1 may
	// read them without further synchronization. parked is the wake
	// channel, allocated lazily by the first waiter that actually needs
	// to block: a request that completes before anyone parks — the
	// common case for niodev sends, whose frame the sender writes itself
	// or the peer's current writer finishes within the waiter's brief
	// spin — never allocates or closes a channel at all.
	state  atomic.Uint32
	parked atomic.Pointer[chan struct{}]
	status xdev.Status
	err    error

	// cqSlot is the completion queue's intrusive membership flag,
	// owned by cqueue under its lock (see cqueue.Entry).
	cqSlot bool
}

// CQSlot implements cqueue.Entry.
func (r *Request) CQSlot() *bool { return &r.cqSlot }

// NewRequest returns a fresh, incomplete request on this core.
func (c *Core) NewRequest(kind Kind, buf *mpjbuf.Buffer) *Request {
	return &Request{c: c, kind: kind, Buf: buf, t0: -1, Pin: -1, OpCtx: NoCtx}
}

// waitSpin is how many scheduler yields Wait burns before allocating a
// park channel and blocking: long enough to cover an in-flight
// completion (a writer finishing the batch that carries this
// request), short enough that a receive with no matching message goes
// to sleep promptly.
const waitSpin = 64

// await blocks until the request completes: fast-path check, brief
// adaptive spin, then park on a lazily-published channel. The
// publish-then-recheck order pairs with Complete's flip-then-check so
// a wake is never lost.
func (r *Request) await() {
	if r.state.Load() != 0 {
		return
	}
	for i := 0; i < waitSpin; i++ {
		runtime.Gosched()
		if r.state.Load() != 0 {
			return
		}
	}
	ch := r.parked.Load()
	if ch == nil {
		nc := make(chan struct{})
		if !r.parked.CompareAndSwap(nil, &nc) {
			ch = r.parked.Load()
		} else {
			ch = &nc
		}
	}
	if r.state.Load() != 0 {
		// Complete raced the publish and may have missed the channel;
		// the flag alone is authoritative.
		return
	}
	<-*ch
}

// Trace stamps the request with its tracing envelope (recorder clock
// start, peer slot, tag, context). Only call when tracing is on.
func (r *Request) Trace(peer, tag, ctx int32) {
	r.t0 = r.c.rec.Now()
	r.peer, r.tag, r.ctx = peer, tag, ctx
}

// TraceSeq additionally stamps the message's per-sender sequence
// number (the send side knows it at creation).
func (r *Request) TraceSeq(peer, tag, ctx int32, seq uint64) {
	r.Trace(peer, tag, ctx)
	r.seq = seq
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

// SetClaimDecision attaches a dual-post arbitration decision; the core
// resolves (and under replay verifies) it when the request matches.
func (r *Request) SetClaimDecision(c *replay.Claim) { r.cdec = c }

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

// EnableClaim arms the request for multi-core posting. Call before the
// first PostRecv: from then on every match point and failure drain
// takes the claim before completing or delivering into the request, so
// two cores holding the same posted request complete it exactly once.
func (r *Request) EnableClaim() { r.claim = new(atomic.Bool) }

// TryClaim takes ownership of the request. It always succeeds on a
// single-core request; on a claim-armed request only the first caller
// wins, and the loser must not touch the request's buffer or complete
// it.
func (r *Request) TryClaim() bool {
	if r.claim == nil {
		return true
	}
	return r.claim.CompareAndSwap(false, true)
}

// claimed reports whether a claim-armed request has already been won.
func (r *Request) claimed() bool {
	return r.claim != nil && r.claim.Load()
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
// completes it) guarantees that.
func (r *Request) Complete(st xdev.Status, err error) {
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
	r.state.Store(1)
	if ch := r.parked.Load(); ch != nil {
		close(*ch)
	}
	r.c.cq.Push(r)
}

// Done reports (without blocking) whether the request has completed.
func (r *Request) Done() bool {
	return r.state.Load() != 0
}

// Err returns the completion error; only valid after completion.
func (r *Request) Err() error { return r.err }

// Status returns the completion status; only valid after completion.
func (r *Request) Status() xdev.Status { return r.status }

// Wait blocks until the request completes.
func (r *Request) Wait() (xdev.Status, error) {
	r.await()
	r.c.cq.Collect(r)
	return r.status, r.err
}

// Test reports whether the request has completed, without blocking.
func (r *Request) Test() (xdev.Status, bool, error) {
	if r.state.Load() != 0 {
		r.c.cq.Collect(r)
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

// Package devcore is the shared progress core beneath every xdev
// device implementation. The paper's xdev layer (Fig. 2) defines one
// device contract; the four devices in this repository (niodev, smpdev,
// mxdev/mxsim, ibisdev) used to re-implement the same engine behind it.
// devcore concentrates that engine in one thread-safe core, the
// architecture Ibdxnet demonstrates for concurrent messaging stacks:
//
//   - message matching: the posted-receive PatternSet and the
//     arrived-but-unmatched ItemSet of package match, under one lock
//     (the paper's receive-communication-sets lock, §IV-E.2);
//   - request lifecycle: creation, exactly-once completion, and the
//     completion-queue discipline (package cqueue) that makes the
//     blocking Peek beneath mpjdev's Waitany possible (§IV-E.1);
//   - peer-death and abort propagation: receives pinned on a dead peer
//     fail, rendezvous announcements from it are dropped, registered
//     pending sets (rendezvous/sync sends) drain, blocked probes wake,
//     and the completion queue is poisoned on shutdown so no caller is
//     left hanging;
//   - the mpe counter and trace hooks every device reports through.
//
// A device shrinks to its transport binding: TCP framing and input
// handlers (niodev), in-process delivery (smpdev), the 64-bit
// match-bits adapter (mxsim), or per-operation worker threads
// (ibisdev, via smpdev). Error *shapes* remain device-specific — each
// device supplies pre-shaped error values and a ClosedErr hook — but
// the decisions of when requests fail, who completes them, and what
// wakes are made here, once.
package devcore

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"mpj/internal/cqueue"
	"mpj/internal/match"
	"mpj/internal/mpe"
	"mpj/internal/replay"
	"mpj/internal/xdev"
)

// ErrClosed is the internal signal that an operation raced with core
// shutdown. Devices translate it into their own closed-error shape; it
// wraps xdev.ErrDeviceClosed so an untranslated escape still satisfies
// device-agnostic errors.Is tests.
var ErrClosed = errors.Join(errors.New("devcore: core closed"), xdev.ErrDeviceClosed)

// ErrClaimed reports that a claim-armed request (one posted into more
// than one core, hybriddev's ANY_SOURCE dual-posting) was won by the
// other core before this call could act on it. The caller must treat
// the request as already being delivered elsewhere: not an error of
// the operation, just "this copy is stale".
var ErrClaimed = errors.New("devcore: request claimed by another core")

// Arrival is a message that reached this core: either a fully buffered
// payload or a rendezvous announcement whose data is still remote. It
// parks in the arrived set until a receive matches it. Devices take
// arrivals from NewArrival, and whoever ends up holding one — the
// receive that took it out of the arrived set, or the arriving side
// when it matched at once or was refused — hands it back through
// ReleaseArrival once done with it. Once parked it is the arrived
// set's: the parking side must not read it again.
type Arrival struct {
	Src     uint64 // sending slot (the actual sender, not match bits)
	Tag     int32
	Ctx     int32
	Seq     uint64
	WireLen int
	Sync    bool     // synchronous-mode send; receiver must ACK on match
	Rndv    bool     // rendezvous announcement: data not here yet
	Data    []byte   // buffered payload in wire form (nil when Rndv)
	SyncReq *Request // local synchronous sender awaiting match, if any

	// MatchInfo preserves the sender's 64-bit match information for
	// devices that match by match bits (the mxsim adapter); zero
	// elsewhere.
	MatchInfo uint64
}

var arrivalPool = sync.Pool{New: func() any { return new(Arrival) }}

// NewArrival returns a zeroed arrival from a pool.
func NewArrival() *Arrival { return arrivalPool.Get().(*Arrival) }

// ReleaseArrival returns a to the pool. Its Data is not recycled here:
// the caller hands that back through PutSlice (or keeps it).
func ReleaseArrival(a *Arrival) {
	*a = Arrival{}
	arrivalPool.Put(a)
}

// Envelope is what a probe reports of a parked arrival: a copy, so the
// prober never holds an arrival a receive may consume and recycle.
type Envelope struct {
	Src       uint64
	Tag       int32
	Ctx       int32
	Seq       uint64
	WireLen   int
	MatchInfo uint64
}

func (a *Arrival) envelope() Envelope {
	return Envelope{Src: a.Src, Tag: a.Tag, Ctx: a.Ctx, Seq: a.Seq, WireLen: a.WireLen, MatchInfo: a.MatchInfo}
}

// status is the xdev status a probe reports for the envelope.
func (e Envelope) status() xdev.Status {
	return xdev.Status{Source: xdev.ProcessID{UUID: e.Src}, Tag: int(e.Tag), Bytes: e.WireLen}
}

// PeerFail describes how a peer's departure propagates.
type PeerFail struct {
	// Err completes every request that only the lost peer could
	// finish. Devices pre-shape it (ErrPeerLost wrapping etc.).
	Err error
	// Graceful suppresses failure accounting: the peer announced a
	// clean departure, so nothing pinned on it can complete, but it is
	// not counted or traced as a loss.
	Graceful bool
	// Sticky records the death so future operations naming the peer
	// fail fast. Non-sticky is for fabrics where the peer's identity
	// can be reopened (mxsim endpoint ids).
	Sticky bool
}

// Core is one device's progress engine. All mutable state is guarded
// by a single mutex — the paper's one receive-communication-sets lock —
// so matching decisions, failure drains, and shutdown are serialized
// exactly as in the pseudocode of §IV-E.2.
type Core struct {
	dev string

	mu      sync.Mutex
	cond    *sync.Cond // arrival parked or state changed: probes recheck
	posted  *match.PatternSet[*Request]
	arrived *match.ItemSet[*Arrival]
	pending []*PendingSet
	// peerDead records per-slot death errors (pre-shaped by the
	// device); entries are only added under Sticky failures.
	peerDead map[uint64]error
	// revoked records per-context revocation errors (pre-shaped by the
	// device); allocated lazily on first RevokeContext.
	revoked map[int32]error
	aborted error
	closed  bool

	seq atomic.Uint64

	// spin says whether waiters yield before parking: only when the
	// process had more than one P when the core was made (see waitSpin).
	spin bool

	cq *cqueue.Queue[*Request]

	// Counters is the device's activity accounting; matching decisions
	// (Matched/Unexpected) and failure counts land here, device
	// protocol counts (EagerSent etc.) are added by the device.
	Counters mpe.Counters

	rec mpe.Recorder

	// session is the rank's record/replay state (internal/replay); nil
	// when record/replay is off, which keeps every tap below a single
	// pointer load. Install at Init via SetReplay, before traffic.
	session atomic.Pointer[replay.Session]

	// closedErr shapes the error returned for operations finding the
	// core closed; op is the operation name ("probe", "peek", ...).
	closedErr func(op string) error

	// notify, when set, fires after every state change that wakes
	// blocked probes (arrival parked, peer failed, shutdown, revoke).
	// A composing device (hybriddev) registers one so its own blocking
	// calls, which span two cores with independent condition variables,
	// learn to recheck. Called outside the core lock.
	notify func()
}

// New returns a live core for the named device.
func New(dev string) *Core {
	c := &Core{
		dev:      dev,
		posted:   match.NewPatternSet[*Request](),
		arrived:  match.NewItemSet[*Arrival](),
		peerDead: make(map[uint64]error),
		spin:     runtime.GOMAXPROCS(0) > 1,
		cq:       cqueue.New[*Request](),
		rec:      mpe.Nop{},
	}
	c.cond = sync.NewCond(&c.mu)
	c.closedErr = func(op string) error {
		return &xdev.Error{Dev: dev, Op: op, Err: xdev.ErrDeviceClosed}
	}
	return c
}

// SetRecorder installs the device's event recorder. Call before
// traffic starts (Init time).
func (c *Core) SetRecorder(rec mpe.Recorder) {
	if rec == nil {
		rec = mpe.Nop{}
	}
	c.mu.Lock()
	c.rec = rec
	c.mu.Unlock()
}

// Recorder returns the installed event recorder.
func (c *Core) Recorder() mpe.Recorder { return c.rec }

// SetClosedErr overrides the closed-operation error shape (e.g. mxsim
// returns its own ErrEndpointClosed sentinel).
func (c *Core) SetClosedErr(f func(op string) error) { c.closedErr = f }

// SetNotify installs a wake hook fired (outside the core lock) after
// every state change that broadcasts to blocked probes. Install at
// Init time, before traffic.
func (c *Core) SetNotify(f func()) {
	c.mu.Lock()
	c.notify = f
	c.mu.Unlock()
}

// Queue exposes the core's completion queue for composition.
func (c *Core) Queue() *cqueue.Queue[*Request] { return c.cq }

// SetQueue redirects completions into q, merging this core's
// completion stream with another core's — the shared-queue half of the
// multi-core composition seam (one Peek observing both transports).
// Strictly Init-time: call before any request exists on this core.
func (c *Core) SetQueue(q *cqueue.Queue[*Request]) {
	c.mu.Lock()
	c.cq = q
	c.mu.Unlock()
}

// NextSeq returns a fresh nonzero sequence number for protocol
// exchanges (rendezvous and sync-ACK matching).
func (c *Core) NextSeq() uint64 { return c.seq.Add(1) }

// Closed reports whether the core has shut down.
func (c *Core) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// SetAborted records the job abort; the first recorded abort wins.
func (c *Core) SetAborted(err error) {
	c.mu.Lock()
	if c.aborted == nil {
		c.aborted = err
	}
	c.mu.Unlock()
}

// PeerErr returns the recorded death error of slot, or nil while it is
// alive (or its death was non-sticky).
func (c *Core) PeerErr(slot uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peerDead[slot]
}

// SendGate is the gate a send passes before it does any work, under
// one acquisition of the core lock: the abort error if the job aborted,
// the device's closed shape if the core shut down, then slot's recorded
// death (PeerErr), then ctx's revocation (CtxErr); nil while all are
// live.
func (c *Core) SendGate(op string, slot uint64, ctx int32) error {
	c.mu.Lock()
	aborted, closed := c.aborted, c.closed
	err := c.peerDead[slot]
	if err == nil {
		err = c.revoked[ctx]
	}
	c.mu.Unlock()
	if aborted != nil {
		return aborted
	}
	if closed {
		return c.closedErr(op)
	}
	return err
}

// failErr is the error a mid-operation closed-core race surfaces:
// the abort cause when there is one, else the ErrClosed signal.
// Caller holds c.mu.
func (c *Core) failErr() error {
	if c.aborted != nil {
		return c.aborted
	}
	return ErrClosed
}

// MatchPosted finds and removes the earliest-posted receive matching
// the envelope, counting the arrival-time match and stamping the
// message's seq onto the traced request. It does not park anything on
// a miss — for protocols that must read the payload before deciding
// (niodev's eager path reads into the user buffer on a hit, into
// device memory on a miss).
func (c *Core) MatchPosted(env match.Concrete, seq uint64) (*Request, bool) {
	c.mu.Lock()
	req, ok := c.matchPostedLocked(env)
	c.mu.Unlock()
	if ok {
		c.Counters.Matched.Add(1)
		req.stampMatch(env.Src, seq)
		c.replayMatched(req, env.Src, env.Tag, env.Ctx, seq)
	}
	return req, ok
}

// matchPostedLocked removes and claims the earliest live posted receive
// matching env. Stale entries — dual-posted requests the other core
// already won — are discarded on the way. Caller holds c.mu.
func (c *Core) matchPostedLocked(env match.Concrete) (*Request, bool) {
	for {
		req, ok := c.posted.Match(env)
		if !ok {
			return nil, false
		}
		if req.TryClaim() {
			return req, true
		}
	}
}

// MatchOrPark is the arrival decision point: if a posted receive
// matches the envelope it is removed and returned (counted Matched);
// otherwise the arrival parks in the unexpected set (counted
// Unexpected) and blocked probes wake. On a closed or aborted core
// nothing parks: the error (abort cause, or the ErrClosed signal) is
// returned and the caller decides how the message — and any
// synchronous sender behind it — fails.
func (c *Core) MatchOrPark(env match.Concrete, a *Arrival) (*Request, bool, error) {
	c.mu.Lock()
	if c.closed || c.aborted != nil {
		err := c.failErr()
		c.mu.Unlock()
		return nil, false, err
	}
	if err := c.revoked[env.Ctx]; err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	// Stamp the decoded envelope onto the arrival so context-keyed
	// drains (RevokeContext) and trace events see it even on devices
	// that deliver by match bits (mxsim).
	a.Tag, a.Ctx = env.Tag, env.Ctx
	if req, ok := c.matchPostedLocked(env); ok {
		c.mu.Unlock()
		c.Counters.Matched.Add(1)
		req.stampMatch(a.Src, a.Seq)
		c.replayMatched(req, a.Src, a.Tag, a.Ctx, a.Seq)
		return req, true, nil
	}
	rec := c.rec
	notify := c.notify
	// Once parked, a receive may take a and recycle it: the trace event
	// reads a copy.
	e := a.envelope()
	c.arrived.Add(env, a)
	c.cond.Broadcast()
	c.mu.Unlock()
	if notify != nil {
		notify()
	}
	c.Counters.Unexpected.Add(1)
	if rec.Enabled() {
		rec.EventSeq(mpe.RecvUnexpected, int32(e.Src), e.Tag, e.Ctx, int64(e.WireLen), e.Seq)
	}
	return nil, false, nil
}

// PostRecv is the receive decision point and its gate, under one
// acquisition of the core lock. An aborted or closed core fails the
// receive first, even with a matching message parked. Otherwise, if a
// parked arrival matches the pattern it is removed and returned for
// the caller to deliver (consuming a parked unexpected message is not
// an arrival-time match, so nothing is counted); if none does, the
// receive joins the posted set — unless its context is revoked or the
// pattern pins a source already known dead, in which case it fails fast
// with the recorded error instead of parking forever.
//
// pinAlive, when non-nil, is consulted under the core lock before
// posting: devices whose peer liveness lives outside the core (mxsim's
// fabric membership) close the post-vs-peer-death race through it.
//
// A claim-armed request (EnableClaim) may already belong to the other
// core by the time it reaches here; then ErrClaimed comes back, the
// parked arrival stays parked, and nothing is posted.
func (c *Core) PostRecv(p match.Pattern, req *Request, pinAlive func() error) (*Arrival, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aborted != nil {
		return nil, c.aborted
	}
	if c.closed {
		return nil, c.closedErr("irecv")
	}
	if s := c.session.Load(); s != nil {
		var err error
		if p, err = c.replayPostLocked(s, p, req); err != nil {
			return nil, err
		}
	}
	// Peek-then-claim-then-remove: the arrival is only consumed once
	// the request is won, so a lost claim race strands nothing.
	// ItemSet.Peek and ItemSet.Match return the same earliest entry,
	// and c.mu is held across all three steps.
	if a, ok := c.arrived.Peek(p); ok {
		if !req.TryClaim() {
			return nil, ErrClaimed
		}
		c.arrived.Match(p)
		req.stampMatch(a.Src, a.Seq)
		c.replayMatched(req, a.Src, a.Tag, a.Ctx, a.Seq)
		return a, nil
	}
	if req.claimed() {
		return nil, ErrClaimed
	}
	if err := c.revoked[p.Ctx]; err != nil {
		return nil, err
	}
	if p.Src != match.AnySource {
		if err := c.peerDead[p.Src]; err != nil {
			return nil, err
		}
	}
	if pinAlive != nil {
		if err := pinAlive(); err != nil {
			return nil, err
		}
	}
	c.posted.Add(p, req)
	return nil, nil
}

// IProbe checks for a parked arrival matching the pattern without
// consuming it. ok=false with no error means "nothing yet".
func (c *Core) IProbe(p match.Pattern, op string) (e Envelope, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.arrived.Peek(p); ok {
		return a.envelope(), true, nil
	}
	return Envelope{}, false, c.probeErrLocked(p, op)
}

// Probe blocks until an arrival matches the pattern, failing instead
// of blocking forever when the job aborts, the core closes, or a
// pinned source dies with no buffered match left.
func (c *Core) Probe(p match.Pattern, op string) (Envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if a, ok := c.arrived.Peek(p); ok {
			return a.envelope(), nil
		}
		if err := c.probeErrLocked(p, op); err != nil {
			return Envelope{}, err
		}
		c.cond.Wait()
	}
}

// probeErrLocked is why a probe finding nothing can stop looking: the
// abort cause, the closed shape, the context's revocation, or the death
// of the pinned source. Caller holds c.mu.
func (c *Core) probeErrLocked(p match.Pattern, op string) error {
	if c.aborted != nil {
		return c.aborted
	}
	if c.closed {
		return c.closedErr(op)
	}
	if err := c.revoked[p.Ctx]; err != nil {
		return err
	}
	if p.Src != match.AnySource {
		return c.peerDead[p.Src]
	}
	return nil
}

// Peek blocks until some request completes and returns it — the
// completion-queue primitive beneath mpjdev's Waitany (§IV-E.1). A
// request is queued just before its completion flag flips, so every
// pop waits for the flip: the caller may read its status through Test.
// After shutdown drains, it reports the abort cause or the closed
// shape. With a record/replay session installed the pop is logged, and
// under replay reordered to the recorded pop sequence (see
// peekSession).
func (c *Core) Peek() (*Request, error) {
	if s := c.session.Load(); s != nil {
		return c.peekSession(s)
	}
	r, err := c.cq.Peek()
	if err != nil {
		return nil, c.peekErr()
	}
	r.await()
	return r, nil
}

// FailPeer propagates the loss of slot: posted receives pinned on it
// (by pattern source or by Request.Pin) fail with f.Err, rendezvous
// announcements from it are dropped (their data will never come; fully
// buffered arrivals stay deliverable), registered pending sets drain
// entries keyed on it, and blocked probes wake. Sticky failures are
// recorded so future operations naming the peer fail fast; the whole
// call is idempotent per slot and a no-op once the core is closed
// (shutdown already fails everything). Reports whether this call was
// the one that propagated.
func (c *Core) FailPeer(slot uint64, f PeerFail) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	if f.Sticky {
		if c.peerDead[slot] != nil {
			c.mu.Unlock()
			return false
		}
		c.peerDead[slot] = f.Err
	}
	victims := c.posted.TakeFunc(func(p match.Pattern, r *Request) bool {
		return p.Src == slot || (r.Pin >= 0 && uint64(r.Pin) == slot)
	})
	for _, s := range c.pending {
		victims = append(victims, s.drainLocked(func(k PendingKey, _ *Request) bool { return k.Peer == slot })...)
	}
	c.arrived.TakeFunc(func(a *Arrival) bool { return a.Rndv && a.Src == slot })
	rec := c.rec
	notify := c.notify
	c.cond.Broadcast()
	c.mu.Unlock()
	if notify != nil {
		notify()
	}

	if !f.Graceful {
		c.Counters.PeersLost.Add(1)
		if rec.Enabled() {
			rec.Event(mpe.PeerLost, int32(slot), -1, -1, 0)
		}
	}
	for _, r := range victims {
		if r.TryClaim() {
			r.Complete(xdev.Status{}, f.Err)
		}
	}
	return true
}

// Shutdown closes the core: every parked request — posted receives,
// registered pending sets, and synchronous senders still waiting
// unmatched in the arrived set — fails (postedErr for the former two,
// parkedSyncErr for the senders), blocked probes wake, and the
// completion queue closes after the failures are pushed so Peek and
// Waitany drain them as errored completions rather than losing them.
// Reports whether this call performed the shutdown (false if already
// closed).
func (c *Core) Shutdown(postedErr, parkedSyncErr error) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.closed = true
	victims := c.posted.TakeFunc(func(match.Pattern, *Request) bool { return true })
	for _, s := range c.pending {
		victims = append(victims, s.drainLocked(func(PendingKey, *Request) bool { return true })...)
	}
	var syncs []*Request
	for _, a := range c.arrived.TakeFunc(func(a *Arrival) bool { return a.SyncReq != nil }) {
		syncs = append(syncs, a.SyncReq)
	}
	notify := c.notify
	cq := c.cq
	c.cond.Broadcast()
	c.mu.Unlock()
	if notify != nil {
		notify()
	}

	for _, r := range victims {
		if r.TryClaim() {
			r.Complete(xdev.Status{}, postedErr)
		}
	}
	for _, r := range syncs {
		if r.TryClaim() {
			r.Complete(xdev.Status{}, parkedSyncErr)
		}
	}
	cq.Close()
	return true
}

// Broadcast wakes blocked Probe callers so they re-examine state the
// device changed outside the core.
func (c *Core) Broadcast() {
	c.mu.Lock()
	notify := c.notify
	c.cond.Broadcast()
	c.mu.Unlock()
	if notify != nil {
		notify()
	}
}

package devcore

import (
	"mpj/internal/match"
	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// Port is what a device binds beneath the front end: its transport.
type Port interface {
	// StartSend starts the send of req.Buf to slot on a request that
	// has passed the send gate, been stamped with its context and
	// traced. sync selects synchronous completion (Ssend/ISsend). A nil
	// return hands the request's completion to the device; an error
	// means req was not started.
	StartSend(req *Request, slot uint64, tag, context int, sync bool) error
	// Deliver consumes an arrival PostRecv took out of the arrived set
	// for req: it owns a from here (ReleaseArrival) and completes req.
	Deliver(req *Request, a *Arrival)
}

// Front is the xdev point-to-point surface (paper Fig. 2) over one
// core, written once for the devices that embed it: the send modes
// and receives, probes, Peek, and the counters and recorder they
// report through. Every call gates under one acquisition of the core
// lock — a send through SendGate, a receive through PostRecv — and a
// blocking call takes its request from NewBlockingRequest. The device
// supplies only its Port. A process's slot on the core is its job rank,
// the UUID of its ProcessID.
type Front struct {
	dev  string
	core *Core
	size int // job size: the slots are 0 .. size-1
	port Port
}

// Bind names the device and its transport. Call once, at construction.
func (f *Front) Bind(dev string, p Port) { f.dev, f.port = dev, p }

// Attach hands the front end the device's core once Init has joined
// a job of size ranks; until then every operation fails as not ready.
func (f *Front) Attach(c *Core, size int) { f.core, f.size = c, size }

func (f *Front) notReady(op string) error {
	return xdev.Errf(f.dev, op, "device not ready: %w", xdev.ErrDeviceClosed)
}

// slot resolves a process to its slot on the core.
func (f *Front) slot(p xdev.ProcessID) (uint64, error) {
	if p.UUID >= uint64(f.size) {
		return 0, xdev.Errf(f.dev, "resolve", "unknown process %v", p)
	}
	return p.UUID, nil
}

// newRequest makes a nonblocking call's request, or a blocking call's
// from the pool.
func (f *Front) newRequest(kind Kind, buf *mpjbuf.Buffer, context int, blocking bool) *Request {
	var r *Request
	if blocking {
		r = f.core.NewBlockingRequest(kind, buf)
	} else {
		r = f.core.NewRequest(kind, buf)
	}
	r.OpCtx = int32(context)
	return r
}

// isend gates, stamps and traces a send, then hands it to the port.
func (f *Front) isend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int, sync, blocking bool) (*Request, error) {
	c := f.core
	if c == nil {
		return nil, f.notReady("isend")
	}
	slot, err := f.slot(dst)
	if err == nil {
		err = c.SendGate("isend", slot, int32(context))
	}
	if err != nil {
		return nil, err
	}
	req := f.newRequest(SendReq, buf, context, blocking)
	if c.rec.Enabled() {
		req.Trace(int32(slot), int32(tag), int32(context))
		c.rec.Event(mpe.SendBegin, int32(slot), int32(tag), int32(context), int64(buf.WireLen()))
	}
	if err := f.port.StartSend(req, slot, tag, context, sync); err != nil {
		return nil, err
	}
	return req, nil
}

// started hands a nonblocking call's request to the caller: on error
// an untyped nil, not a nil *Request inside the interface.
func started(r *Request, err error) (xdev.Request, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// sent waits out a blocking send.
func sent(r *Request, err error) error {
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// ISend starts a standard-mode non-blocking send.
func (f *Front) ISend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	return started(f.isend(buf, dst, tag, context, false, false))
}

// Send is the blocking standard-mode send.
func (f *Front) Send(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	return sent(f.isend(buf, dst, tag, context, false, true))
}

// ISsend starts a synchronous-mode non-blocking send.
func (f *Front) ISsend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	return started(f.isend(buf, dst, tag, context, true, false))
}

// Ssend is the blocking synchronous-mode send.
func (f *Front) Ssend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	return sent(f.isend(buf, dst, tag, context, true, true))
}

// pattern builds the match pattern of a receive or probe.
func (f *Front) pattern(src xdev.ProcessID, tag, context int) (match.Pattern, error) {
	p := match.Pattern{Ctx: int32(context), Tag: int32(tag), Src: match.AnySource}
	if tag == xdev.AnyTag {
		p.Tag = match.AnyTag
	}
	if !src.IsAnySource() {
		slot, err := f.slot(src)
		if err != nil {
			return p, err
		}
		p.Src = slot
	}
	return p, nil
}

// post posts req under p, or hands a matching parked arrival to the
// port. A nil return means the core or the port now owns the request's
// completion; ErrClaimed means a dual-posted request was won by the
// sibling core first (req untouched here).
func (f *Front) post(req *Request, p match.Pattern) error {
	a, err := f.core.PostRecv(p, req, nil)
	if err == nil && a != nil {
		f.port.Deliver(req, a)
	}
	return err
}

// irecv is IRecv, and with blocking the first half of Recv on a
// pooled request.
func (f *Front) irecv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int, blocking bool) (*Request, error) {
	c := f.core
	if c == nil {
		return nil, f.notReady("irecv")
	}
	p, err := f.pattern(src, tag, context)
	if err != nil {
		return nil, err
	}
	req := f.newRequest(RecvReq, buf, context, blocking)
	if c.rec.Enabled() {
		peer := int32(-1)
		if p.Src != match.AnySource {
			peer = int32(p.Src)
		}
		req.Trace(peer, int32(tag), int32(context))
		c.rec.Event(mpe.RecvPosted, peer, int32(tag), int32(context), 0)
	}
	if err := f.post(req, p); err != nil {
		return nil, err
	}
	return req, nil
}

// IRecv posts a non-blocking receive (paper Figs. 4 and 7). A parked
// message that matches is consumed at once; otherwise the request
// joins the posted set. A receive pinned to a peer already known dead
// fails fast — unless a matching message arrived before the peer died,
// which is still delivered.
func (f *Front) IRecv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Request, error) {
	return started(f.irecv(buf, src, tag, context, false))
}

// Recv blocks until a matching message has been received.
func (f *Front) Recv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	r, err := f.irecv(buf, src, tag, context, true)
	if err != nil {
		return xdev.Status{}, err
	}
	return r.Wait()
}

// PostRecvReq posts a receive on an externally created request — the
// composition hook hybriddev uses to dual-post one ANY_SOURCE request
// into two devices. The caller owns request creation and tracing;
// delivery is IRecv's. Returns ErrClaimed when the sibling core won
// the request before this device could act (req untouched).
func (f *Front) PostRecvReq(req *Request, src xdev.ProcessID, tag, context int) error {
	if f.core == nil {
		return f.notReady("irecv")
	}
	p, err := f.pattern(src, tag, context)
	if err != nil {
		return err
	}
	req.OpCtx = int32(context)
	return f.post(req, p)
}

// IProbe checks for a matching parked message without receiving it.
func (f *Front) IProbe(src xdev.ProcessID, tag, context int) (xdev.Status, bool, error) {
	if f.core == nil {
		return xdev.Status{}, false, f.notReady("iprobe")
	}
	p, err := f.pattern(src, tag, context)
	if err != nil {
		return xdev.Status{}, false, err
	}
	e, ok, err := f.core.IProbe(p, "iprobe")
	return e.status(), ok, err
}

// Probe blocks until a matching message is available. It fails instead
// of blocking forever when the device closes, the job aborts, or a
// pinned source dies with no buffered match left.
func (f *Front) Probe(src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	if f.core == nil {
		return xdev.Status{}, f.notReady("probe")
	}
	p, err := f.pattern(src, tag, context)
	if err != nil {
		return xdev.Status{}, err
	}
	e, err := f.core.Probe(p, "probe")
	if err != nil {
		return xdev.Status{}, err
	}
	return e.status(), nil
}

// Peek blocks until some request completes and returns it (paper
// §IV-E.1; the primitive beneath mpjdev's Waitany).
func (f *Front) Peek() (xdev.Request, error) {
	if f.core == nil {
		return nil, f.notReady("peek")
	}
	r, err := f.core.Peek()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ReplayActive reports whether a record/replay session is installed
// (mpjdev's WaitAny skips its Test fast path while one is).
func (f *Front) ReplayActive() bool { return f.core != nil && f.core.ReplayActive() }

// Core exposes the device's progress core for composition (hybriddev's
// shared completion queue and notification hooks). Nil until Init.
func (f *Front) Core() *Core { return f.core }

// Stats returns a snapshot of the device's activity counters.
func (f *Front) Stats() mpe.CounterSnapshot {
	if f.core == nil {
		return mpe.CounterSnapshot{}
	}
	return f.core.Counters.Snapshot()
}

// CountersRef exposes the live counter block (mpe.CounterSource) so
// upper layers account into the same counters Stats reports. Nil until
// Init.
func (f *Front) CountersRef() *mpe.Counters {
	if f.core == nil {
		return nil
	}
	return &f.core.Counters
}

// Recorder exposes the device's event recorder so upper layers record
// into the same per-rank stream (mpe.Instrumented).
func (f *Front) Recorder() mpe.Recorder {
	if f.core == nil {
		return mpe.Nop{}
	}
	return f.core.rec
}

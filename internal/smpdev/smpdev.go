// Package smpdev is a shared-memory xdev device for ranks running in a
// single OS process — the SMP-cluster scenario that motivates the
// paper's emphasis on thread safety (§I), and the "shared memory
// device" its future work anticipates. A message moves in one copy,
// sender's buffer to receiver's, unless it must wait for its receive.
//
// The device is a thin binding over the shared progress core
// (internal/devcore): each rank's mailbox IS a devcore.Core, holding
// the four-key matching engine, the completion queue, and the
// peer-death/abort propagation. Matching happens on the sender's
// thread against the destination rank's core — the in-process
// equivalent of a network device's input handler — so receive-side
// counters (Matched/Unexpected) and unexpected-arrival events land on
// the destination core, while a request always completes into its
// creator's core.
package smpdev

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mpj/internal/devcore"
	"mpj/internal/match"
	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// DeviceName is the registry name of this device.
const DeviceName = "smpdev"

// ErrDeviceClosed is returned for operations on a finished device. It
// wraps xdev.ErrDeviceClosed for device-agnostic errors.Is tests.
var ErrDeviceClosed = fmt.Errorf("smpdev: %w", xdev.ErrDeviceClosed)

func init() {
	xdev.Register(DeviceName, func() xdev.Device { return New() })
}

// board is the process-global registry of SMP job groups.
var board = struct {
	sync.Mutex
	groups map[string]*group
}{groups: make(map[string]*group)}

// group is one SMP job: a progress core per rank, created together so
// senders can deliver into a rank's core before that rank has joined.
type group struct {
	name   string
	size   int
	cores  []*devcore.Core
	joined int
}

func newGroup(name string, size int) *group {
	g := &group{name: name, size: size, cores: make([]*devcore.Core, size)}
	for i := range g.cores {
		c := devcore.New(DeviceName)
		c.SetClosedErr(func(op string) error {
			if op == "peek" {
				return ErrDeviceClosed
			}
			return fmt.Errorf("smpdev: %s: %w", op, ErrDeviceClosed)
		})
		g.cores[i] = c
	}
	return g
}

// Device implements xdev.Device for in-process ranks.
type Device struct {
	cfg      xdev.Config
	self     xdev.ProcessID
	pids     []xdev.ProcessID
	grp      *group
	core     *devcore.Core // this rank's mailbox core
	mu       sync.Mutex
	initDone bool
	// finished is atomic: operations check it lock-free on their fast
	// path while Finish (possibly on another goroutine) sets it.
	finished atomic.Bool

	rec mpe.Recorder
}

// New returns an uninitialized smpdev device.
func New() *Device { return &Device{rec: mpe.Nop{}} }

// Stats returns a snapshot of the device's activity counters: its own
// sends plus the receive-side activity other ranks recorded into this
// rank's core.
func (d *Device) Stats() mpe.CounterSnapshot {
	if d.core == nil {
		return mpe.CounterSnapshot{}
	}
	return d.core.Counters.Snapshot()
}

// Recorder exposes the device's event recorder (mpe.Instrumented).
func (d *Device) Recorder() mpe.Recorder { return d.rec }

// CountersRef exposes the live counter block (mpe.CounterSource) so
// upper layers account into the same counters Stats reports. Nil until
// Init.
func (d *Device) CountersRef() *mpe.Counters {
	if d.core == nil {
		return nil
	}
	return &d.core.Counters
}

// Introspect snapshots this rank's mailbox core for the telemetry
// /introspect endpoint.
func (d *Device) Introspect() any {
	if d.core == nil {
		return struct{}{}
	}
	return struct {
		Core devcore.CoreState `json:"core"`
	}{Core: d.core.Introspect()}
}

// MemoryDomain names the in-process job namespace this device joined,
// enabling the one-sided layer's zero-copy shared-memory delivery
// (xdev.MemoryDomain): every rank of an smpdev job lives in this
// process, so a window's memory is directly addressable by its peers.
func (d *Device) MemoryDomain() (string, bool) {
	if !d.initDone {
		return "", false
	}
	name := d.cfg.Group
	if name == "" {
		name = "smp-default"
	}
	return DeviceName + "/" + name, true
}

// PeerErr reports the recorded death error of peer p, or nil while it
// is alive (xdev.PeerChecker). Finish propagates departures as sticky
// per-peer records on every survivor core, so the answer is stable.
func (d *Device) PeerErr(p xdev.ProcessID) error {
	if d.core == nil {
		return nil
	}
	return d.core.PeerErr(p.UUID)
}

// Init joins (and if necessary creates) the in-process group named by
// cfg.Group, claiming the core for cfg.Rank.
func (d *Device) Init(cfg xdev.Config) ([]xdev.ProcessID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.initDone {
		return nil, xdev.Errf(DeviceName, "init", "device already initialized")
	}
	if cfg.Size < 1 {
		return nil, xdev.Errf(DeviceName, "init", "job size %d < 1", cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, xdev.Errf(DeviceName, "init", "rank %d out of range [0,%d)", cfg.Rank, cfg.Size)
	}
	name := cfg.Group
	if name == "" {
		name = "smp-default"
	}
	board.Lock()
	g := board.groups[name]
	if g == nil {
		g = newGroup(name, cfg.Size)
		board.groups[name] = g
	}
	if g.size != cfg.Size {
		board.Unlock()
		return nil, xdev.Errf(DeviceName, "init", "group %q has size %d, not %d", name, g.size, cfg.Size)
	}
	g.joined++
	board.Unlock()

	d.cfg = cfg
	if cfg.Recorder != nil {
		d.rec = cfg.Recorder
	}
	d.grp = g
	d.core = g.cores[cfg.Rank]
	d.core.SetRecorder(d.rec)
	if cfg.Replay != nil {
		d.core.SetReplay(cfg.Replay)
	}
	d.pids = make([]xdev.ProcessID, cfg.Size)
	for i := range d.pids {
		d.pids[i] = xdev.ProcessID{UUID: uint64(i)}
	}
	d.self = d.pids[cfg.Rank]
	d.initDone = true
	return append([]xdev.ProcessID(nil), d.pids...), nil
}

// ID returns this process's ProcessID.
func (d *Device) ID() xdev.ProcessID { return d.self }

// Finish closes this rank's core, fails its pending requests so no
// blocked caller hangs, and propagates this rank's departure to the
// rest of the group: receives other ranks have pinned on this rank
// fail with an error wrapping xdev.ErrPeerLost. The group is released
// when every member has finished.
func (d *Device) Finish() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.finished.Swap(true) || !d.initDone {
		return nil
	}

	closedErr := &xdev.Error{Dev: DeviceName, Op: "finish", Err: ErrDeviceClosed}
	peerLost := &xdev.Error{
		Dev: DeviceName,
		Op:  fmt.Sprintf("peer %d", d.cfg.Rank),
		Err: fmt.Errorf("rank %d finished: %w", d.cfg.Rank, xdev.ErrPeerLost),
	}
	// Posted receives fail as device-closed; synchronous senders parked
	// unmatched in this mailbox will never be matched now — their Ssend
	// fails with the receiver's departure.
	d.core.Shutdown(closedErr, peerLost)

	// Tell the survivors: receives pinned on this rank cannot complete.
	// The departure is graceful — propagated, but not counted a loss.
	for slot, c := range d.grp.cores {
		if slot == d.cfg.Rank {
			continue
		}
		c.FailPeer(uint64(d.cfg.Rank), devcore.PeerFail{Err: peerLost, Graceful: true, Sticky: true})
	}

	board.Lock()
	d.grp.joined--
	if d.grp.joined == 0 {
		delete(board.groups, d.grp.name)
	}
	board.Unlock()
	return nil
}

// Abort tears the whole group down with the given code: every member's
// pending requests fail with an *xdev.AbortError and their blocked
// Recv/Probe/Peek callers wake. Implements xdev.Aborter.
func (d *Device) Abort(code int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.initDone || d.finished.Load() {
		return nil
	}
	ab := &xdev.AbortError{Code: code, From: d.cfg.Rank}
	if d.rec.Enabled() {
		d.rec.Event(mpe.Aborted, int32(d.cfg.Rank), int32(code), -1, 0)
	}
	for _, c := range d.grp.cores {
		c.SetAborted(ab)
		c.Shutdown(ab, ab)
	}
	return nil
}

// Revoke poisons the matching context on every member's core: posted
// receives, unmatched arrivals (and the synchronous senders parked
// behind them) on the context fail with an error wrapping
// xdev.ErrRevoked and future operations on it fail fast. Propagation
// is direct — the board registry reaches every mailbox in-process, so
// no broadcast protocol is needed. Implements xdev.Revoker.
func (d *Device) Revoke(context int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.initDone || d.finished.Load() {
		return nil
	}
	rerr := &xdev.Error{
		Dev: DeviceName,
		Op:  fmt.Sprintf("context %d", context),
		Err: xdev.ErrRevoked,
	}
	first := false
	for _, c := range d.grp.cores {
		if c.RevokeContext(int32(context), rerr) {
			first = true
		}
	}
	if first && d.rec.Enabled() {
		d.rec.Event(mpe.Revoked, int32(d.cfg.Rank), -1, int32(context), 0)
	}
	return nil
}

var _ xdev.Revoker = (*Device)(nil)

// SendOverhead reports the per-message device overhead (none: headers
// never hit a wire).
func (d *Device) SendOverhead() int { return 0 }

// RecvOverhead reports the per-message device overhead.
func (d *Device) RecvOverhead() int { return 0 }

// isend implements the four send modes: sync selects synchronous
// completion (Ssend/ISsend), blocking a request from devcore's pool
// that only the caller's Wait sees (Send/Ssend).
func (d *Device) isend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int, sync, blocking bool) (*devcore.Request, error) {
	if !d.initDone || d.finished.Load() {
		return nil, xdev.Errf(DeviceName, "isend", "device not ready")
	}
	if dst.UUID >= uint64(len(d.grp.cores)) {
		return nil, xdev.Errf(DeviceName, "isend", "unknown process %v", dst)
	}
	if err := d.core.CtxErr(int32(context)); err != nil {
		return nil, err
	}
	dstCore := d.grp.cores[dst.UUID]
	sreq := d.newRequest(devcore.SendReq, nil, blocking)
	env := match.Concrete{Ctx: int32(context), Tag: int32(tag), Src: uint64(d.cfg.Rank)}
	wireLen := buf.WireLen()
	st := xdev.Status{Source: d.self, Tag: tag, Bytes: wireLen}

	var seq uint64
	if d.rec.Enabled() || d.core.ReplayActive() {
		// The seq matters for cross-rank trace correlation and as the
		// record/replay match stamp, so the counter bump is paid only
		// when either is on. Under a replay session the stamp is drawn
		// from the deterministic per-(dst,ctx,tag) stream.
		seq = d.core.NextSeqSend(dst.UUID, int32(context), int32(tag))
	}
	if d.rec.Enabled() {
		sreq.TraceSeq(int32(dst.UUID), int32(tag), int32(context), seq)
		d.rec.Event(mpe.SendBegin, int32(dst.UUID), int32(tag), int32(context), int64(wireLen))
	}
	if d.core.ReplayActive() {
		sreq.SetReplayID(int64(dst.UUID), int32(tag), int32(context), seq)
	}
	d.core.Counters.EagerSent.Add(1)
	d.core.Counters.BytesSent.Add(uint64(wireLen))

	// The destination core matches on this (the sender's) thread. A
	// posted receive takes the message straight from buf, in one copy;
	// an unexpected message parks as a pooled wire-form copy, so buf (and
	// user memory it borrowed) is free once isend returns.
	rreq, matched := dstCore.MatchPosted(env, seq)
	var lerr error
	if matched {
		lerr = rreq.Buf.LoadBuffer(buf)
	} else {
		data := devcore.WireCopy(buf)
		arr := devcore.NewArrival()
		*arr = devcore.Arrival{
			Src: uint64(d.cfg.Rank), Tag: int32(tag), Ctx: int32(context),
			Seq: seq, WireLen: wireLen, Data: data,
		}
		if sync {
			arr.SyncReq = sreq
		}
		var err error
		if rreq, matched, err = dstCore.MatchOrPark(env, arr); err != nil {
			devcore.ReleaseArrival(arr)
			devcore.PutSlice(data)
			if errors.Is(err, devcore.ErrClosed) {
				return nil, &xdev.Error{
					Dev: DeviceName, Op: "isend",
					Err: fmt.Errorf("destination mailbox %d closed: %w", dst.UUID, xdev.ErrPeerLost),
				}
			}
			return nil, err // job aborted
		}
		if matched { // a receive was posted between the two looks
			devcore.ReleaseArrival(arr)
			lerr = rreq.Buf.LoadWire(data)
			devcore.PutSlice(data)
		}
	}
	if matched {
		rreq.Complete(st, lerr)
	}
	if d.rec.Enabled() {
		d.rec.EventSeq(mpe.EagerOut, int32(dst.UUID), int32(tag), int32(context), int64(wireLen), seq)
	}
	if matched || !sync {
		sreq.Complete(st, nil)
	}
	return sreq, nil
}

// newRequest makes a nonblocking call's request, or a blocking call's
// from devcore's pool.
func (d *Device) newRequest(kind devcore.Kind, buf *mpjbuf.Buffer, blocking bool) *devcore.Request {
	if blocking {
		return d.core.NewBlockingRequest(kind, buf)
	}
	return d.core.NewRequest(kind, buf)
}

// ISend starts a standard-mode non-blocking send.
func (d *Device) ISend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	return d.isend(buf, dst, tag, context, false, false)
}

// Send is the blocking standard-mode send.
func (d *Device) Send(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	r, err := d.isend(buf, dst, tag, context, false, true)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// ISsend starts a synchronous-mode non-blocking send.
func (d *Device) ISsend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	return d.isend(buf, dst, tag, context, true, false)
}

// Ssend is the blocking synchronous-mode send.
func (d *Device) Ssend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	r, err := d.isend(buf, dst, tag, context, true, true)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

func (d *Device) pattern(src xdev.ProcessID, tag, context int) (match.Pattern, error) {
	p := match.Pattern{Ctx: int32(context)}
	if tag == xdev.AnyTag {
		p.Tag = match.AnyTag
	} else {
		p.Tag = int32(tag)
	}
	if src.IsAnySource() {
		p.Src = match.AnySource
	} else {
		if src.UUID >= uint64(d.cfg.Size) {
			return p, xdev.Errf(DeviceName, "recv", "unknown process %v", src)
		}
		p.Src = src.UUID
	}
	return p, nil
}

// IRecv posts a non-blocking receive.
func (d *Device) IRecv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Request, error) {
	r, err := d.irecv(buf, src, tag, context, false)
	if err != nil {
		return nil, err // not a typed nil in the interface
	}
	return r, nil
}

// irecv is IRecv, and with blocking the first half of Recv on a request
// from devcore's pool.
func (d *Device) irecv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int, blocking bool) (*devcore.Request, error) {
	if !d.initDone || d.finished.Load() {
		return nil, xdev.Errf(DeviceName, "irecv", "device not ready")
	}
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return nil, err
	}
	req := d.newRequest(devcore.RecvReq, buf, blocking)
	if d.rec.Enabled() {
		peer := int32(-1)
		if !src.IsAnySource() {
			peer = int32(p.Src)
		}
		req.Trace(peer, int32(tag), int32(context))
		d.rec.Event(mpe.RecvPosted, peer, int32(tag), int32(context), 0)
	}
	if err := d.irecvReq(req, p); err != nil {
		return nil, err
	}
	return req, nil
}

// irecvReq is the post-creation half of IRecv: post req, or deliver a
// matching parked arrival into it. A nil return means the core now
// owns the request's lifecycle; devcore.ErrClaimed means a dual-posted
// request was won by the sibling core first (req untouched here).
func (d *Device) irecvReq(req *devcore.Request, p match.Pattern) error {
	arr, err := d.core.PostRecv(p, req, nil)
	if err != nil {
		return err
	}
	if arr == nil {
		return nil
	}
	st := xdev.Status{Source: d.pids[arr.Src], Tag: int(arr.Tag), Bytes: arr.WireLen}
	lerr := req.Buf.LoadWire(arr.Data)
	devcore.PutSlice(arr.Data)
	syncReq := arr.SyncReq
	devcore.ReleaseArrival(arr)
	if syncReq != nil {
		syncReq.Complete(st, nil)
	}
	req.Complete(st, lerr)
	return nil
}

// PostRecvReq posts a receive on an externally created request — the
// composition hook hybriddev uses to dual-post one ANY_SOURCE request
// into this device and its wire sibling. The caller owns request
// creation and tracing.
func (d *Device) PostRecvReq(req *devcore.Request, src xdev.ProcessID, tag, context int) error {
	if !d.initDone || d.finished.Load() {
		return xdev.Errf(DeviceName, "irecv", "device not ready")
	}
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return err
	}
	return d.irecvReq(req, p)
}

// Core exposes this rank's mailbox core for composition (hybriddev's
// shared completion queue and notification hooks).
func (d *Device) Core() *devcore.Core { return d.core }

// Recv blocks until a matching message has been received.
func (d *Device) Recv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	r, err := d.irecv(buf, src, tag, context, true)
	if err != nil {
		return xdev.Status{}, err
	}
	return r.Wait()
}

// IProbe checks for a matching message without receiving it.
func (d *Device) IProbe(src xdev.ProcessID, tag, context int) (xdev.Status, bool, error) {
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return xdev.Status{}, false, err
	}
	e, ok, err := d.core.IProbe(p, "iprobe")
	if !ok || err != nil {
		return xdev.Status{}, false, err
	}
	return xdev.Status{Source: d.pids[e.Src], Tag: int(e.Tag), Bytes: e.WireLen}, true, nil
}

// Probe blocks until a matching message is available.
func (d *Device) Probe(src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return xdev.Status{}, err
	}
	e, err := d.core.Probe(p, "probe")
	if err != nil {
		return xdev.Status{}, err
	}
	return xdev.Status{Source: d.pids[e.Src], Tag: int(e.Tag), Bytes: e.WireLen}, nil
}

// Peek blocks until some request completes and returns it.
func (d *Device) Peek() (xdev.Request, error) {
	if d.core == nil {
		return nil, ErrDeviceClosed
	}
	r, err := d.core.Peek()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ReplayActive reports whether a record/replay session is installed
// (mpjdev's WaitAny skips its Test fast path while one is).
func (d *Device) ReplayActive() bool { return d.core != nil && d.core.ReplayActive() }

var _ xdev.Device = (*Device)(nil)

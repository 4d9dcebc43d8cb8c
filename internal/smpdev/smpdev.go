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

	"mpj/internal/devcore"
	"mpj/internal/match"
	"mpj/internal/mpe"
	"mpj/internal/xdev"
)

// DeviceName is the registry name of this device.
const DeviceName = "smpdev"

// ErrDeviceClosed is returned by operations outstanding when the device
// is finished. It wraps xdev.ErrDeviceClosed, so device-agnostic
// callers can test with errors.Is against the xdev sentinel.
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
		g.cores[i] = devcore.New(DeviceName)
	}
	return g
}

// Device implements xdev.Device for in-process ranks. The
// point-to-point surface is devcore's front end over this rank's
// mailbox core; Stats reports the device's own sends plus the
// receive-side activity other ranks recorded into that core.
type Device struct {
	devcore.Front

	cfg      xdev.Config
	self     xdev.ProcessID
	grp      *group
	mu       sync.Mutex
	finished bool
}

// New returns an uninitialized smpdev device.
func New() *Device {
	d := &Device{}
	d.Bind(DeviceName, mailbox{d})
	return d
}

// Introspect snapshots this rank's mailbox core for the telemetry
// /introspect endpoint.
func (d *Device) Introspect() any {
	if d.Core() == nil {
		return struct{}{}
	}
	return struct {
		Core devcore.CoreState `json:"core"`
	}{Core: d.Core().Introspect()}
}

// MemoryDomain names the in-process job namespace this device joined,
// enabling the one-sided layer's zero-copy shared-memory delivery
// (xdev.MemoryDomain): every rank of an smpdev job lives in this
// process, so a window's memory is directly addressable by its peers.
func (d *Device) MemoryDomain() (string, bool) {
	if d.Core() == nil {
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
	if d.Core() == nil {
		return nil
	}
	return d.Core().PeerErr(p.UUID)
}

// Init joins (and if necessary creates) the in-process group named by
// cfg.Group, claiming the core for cfg.Rank.
func (d *Device) Init(cfg xdev.Config) ([]xdev.ProcessID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Core() != nil {
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
	d.grp = g
	c := g.cores[cfg.Rank]
	c.SetRecorder(cfg.Recorder)
	if cfg.Replay != nil {
		c.SetReplay(cfg.Replay)
	}
	pids := make([]xdev.ProcessID, cfg.Size)
	for i := range pids {
		pids[i] = xdev.ProcessID{UUID: uint64(i)}
	}
	d.self = pids[cfg.Rank]
	d.Attach(c, cfg.Size)
	return pids, nil
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
	if d.finished || d.Core() == nil {
		return nil
	}
	d.finished = true

	closedErr := &xdev.Error{Dev: DeviceName, Op: "finish", Err: ErrDeviceClosed}
	peerLost := &xdev.Error{
		Dev: DeviceName,
		Op:  fmt.Sprintf("peer %d", d.cfg.Rank),
		Err: fmt.Errorf("rank %d finished: %w", d.cfg.Rank, xdev.ErrPeerLost),
	}
	// Posted receives fail as device-closed; synchronous senders parked
	// unmatched in this mailbox will never be matched now — their Ssend
	// fails with the receiver's departure.
	d.Core().Shutdown(closedErr, peerLost)

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
	if d.Core() == nil || d.finished {
		return nil
	}
	ab := &xdev.AbortError{Code: code, From: d.cfg.Rank}
	if rec := d.Recorder(); rec.Enabled() {
		rec.Event(mpe.Aborted, int32(d.cfg.Rank), int32(code), -1, 0)
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
	if d.Core() == nil || d.finished {
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
	if rec := d.Recorder(); first && rec.Enabled() {
		rec.Event(mpe.Revoked, int32(d.cfg.Rank), -1, int32(context), 0)
	}
	return nil
}

var _ xdev.Revoker = (*Device)(nil)

// SendOverhead reports the per-message device overhead (none: headers
// never hit a wire).
func (d *Device) SendOverhead() int { return 0 }

// RecvOverhead reports the per-message device overhead.
func (d *Device) RecvOverhead() int { return 0 }

// mailbox is the device's devcore.Port: in-process delivery into the
// destination rank's core. It is a type of its own so that the port's
// methods, which skip the front end's gate, are not the device's.
type mailbox struct{ *Device }

// StartSend matches the message against the destination core on this
// (the sender's) thread. A posted receive takes it straight from the
// send buffer, in one copy; an unexpected message parks as a pooled
// wire-form copy, so the buffer (and user memory it borrowed) is free
// once the send returns. A synchronous sender parked behind its message
// completes when a receive takes it.
func (m mailbox) StartSend(sreq *devcore.Request, dst uint64, tag, context int, sync bool) error {
	d, c, rec := m.Device, m.Core(), m.Recorder()
	buf := sreq.Buf
	dstCore := d.grp.cores[dst]
	env := match.Concrete{Ctx: int32(context), Tag: int32(tag), Src: uint64(d.cfg.Rank)}
	wireLen := buf.WireLen()
	st := xdev.Status{Source: d.self, Tag: tag, Bytes: wireLen}

	var seq uint64
	if rec.Enabled() || c.ReplayActive() {
		// The seq matters for cross-rank trace correlation and as the
		// record/replay match stamp, so the counter bump is paid only
		// when either is on. Under a replay session the stamp is drawn
		// from the deterministic per-(dst,ctx,tag) stream.
		seq = c.NextSeqSend(dst, int32(context), int32(tag))
		sreq.SetSeq(seq)
	}
	if c.ReplayActive() {
		sreq.SetReplayID(int64(dst), int32(tag), int32(context), seq)
	}
	c.Counters.EagerSent.Add(1)
	c.Counters.BytesSent.Add(uint64(wireLen))

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
				return &xdev.Error{
					Dev: DeviceName, Op: "isend",
					Err: fmt.Errorf("destination mailbox %d closed: %w", dst, xdev.ErrPeerLost),
				}
			}
			return err // job aborted
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
	if rec.Enabled() {
		rec.EventSeq(mpe.EagerOut, int32(dst), int32(tag), int32(context), int64(wireLen), seq)
	}
	if matched || !sync {
		sreq.Complete(st, nil)
	}
	return nil
}

// Deliver loads a parked message into the receive that took it and
// wakes its synchronous sender, if one waits behind it.
func (m mailbox) Deliver(req *devcore.Request, a *devcore.Arrival) {
	st := xdev.Status{Source: xdev.ProcessID{UUID: a.Src}, Tag: int(a.Tag), Bytes: a.WireLen}
	lerr := req.Buf.LoadWire(a.Data)
	devcore.PutSlice(a.Data)
	syncReq := a.SyncReq
	devcore.ReleaseArrival(a)
	if syncReq != nil {
		syncReq.Complete(st, nil)
	}
	req.Complete(st, lerr)
}

var _ xdev.Device = (*Device)(nil)

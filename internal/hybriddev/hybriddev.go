// Package hybriddev composes two transports behind one xdev.Device —
// the hierarchical, node-aware device the paper's pluggable xdev layer
// (Fig. 2) was designed to admit. Each peer is classified by the job's
// node placement (xdev.Config.NodeOf, plumbed from mpjrun/MPJ_NODE_MAP):
//
//   - node-local peers talk over an smpdev mailbox core — one
//     in-memory copy, no wire, no protocol switch;
//   - remote peers ride a full niodev device — eager/rendezvous
//     protocols, CRC framing, abort/revoke broadcast.
//
// The composition leans on the devcore multi-core seam rather than a
// third protocol:
//
//   - one completion queue: the smp core's queue is redirected into
//     the nio core's at Init (devcore.SetQueue), so a single Peek —
//     and with it mpjdev's Waitany — observes completions from both
//     transports;
//   - cross-core ANY_SOURCE arbitration: a wildcard receive is
//     claim-armed (devcore.EnableClaim) and posted into BOTH cores;
//     whichever transport's message matches first wins the claim, and
//     the loser's stale copy is discarded by the claim-aware match
//     loops and failure drains;
//   - cross-core blocking probes: both cores fire a notification hook
//     (devcore.SetNotify) whenever arrivals park or failure state
//     changes, so one generation-counted wait loop spans two
//     condition variables without polling.
//
// The shared-memory path is only taken when the runtime explicitly
// declares the job colocated (Config.Colocated — RunLocal and the
// in-process test runners); a multi-process job degrades to all-niodev
// routing while the placement still steers the topology-aware
// collectives above. Revoke and Abort fan out through both inner
// devices; placement-aware PeerErr consults both.
package hybriddev

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mpj/internal/devcore"
	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/niodev"
	"mpj/internal/replay"
	"mpj/internal/smpdev"
	"mpj/internal/xdev"
)

// DeviceName is the registry name of this device.
const DeviceName = "hybrid"

func init() {
	xdev.Register(DeviceName, func() xdev.Device { return New() })
}

// Device routes between an smpdev core (node-local peers) and a
// niodev device (remote peers) by job placement.
type Device struct {
	cfg    xdev.Config
	self   xdev.ProcessID
	pids   []xdev.ProcessID
	nodeOf []int // slot -> node id
	myNode int
	nNodes int

	nio *niodev.Device
	smp *smpdev.Device // nil unless the job is colocated

	// session is the rank's record/replay session (nil when off). The
	// same session rides cfg.Replay into both inner devices, so their
	// merged completion queue is enforced as one pop stream; hybriddev
	// itself records/enforces the dual-post claim arbitrations.
	session *replay.Session

	// local[slot] reports whether slot routes over the smp path.
	// Self is always local when the smp inner exists, so a wildcard
	// receive must cover the smp core unless allLocal lets it skip the
	// wire core instead.
	local    []bool
	allLocal bool // every rank is node-local (single-node colocated job)

	// Probe support: a generation-counted wait shared by both inner
	// cores' notification hooks, so one blocking ANY_SOURCE probe can
	// span two condition variables.
	pmu   sync.Mutex
	pcond *sync.Cond
	pgen  uint64

	initDone bool
	finished atomic.Bool

	rec mpe.Recorder
}

// New returns an uninitialized hybrid device.
func New() *Device {
	d := &Device{rec: mpe.Nop{}}
	d.pcond = sync.NewCond(&d.pmu)
	return d
}

// Init joins the job on both inner transports. The niodev inner dials
// every peer — including node-local ones — so abort/revoke broadcasts
// and remote traffic always have a wire; the smpdev inner is created
// only when cfg.Colocated declares all ranks in-process. Placement
// comes from cfg.NodeOf; with no placement, a colocated job is one
// node and a distributed job is one rank per node.
func (d *Device) Init(cfg xdev.Config) ([]xdev.ProcessID, error) {
	if d.initDone {
		return nil, xdev.Errf(DeviceName, "init", "device already initialized")
	}
	if cfg.Size < 1 {
		return nil, xdev.Errf(DeviceName, "init", "job size %d < 1", cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, xdev.Errf(DeviceName, "init", "rank %d out of range [0,%d)", cfg.Rank, cfg.Size)
	}
	nodeOf := cfg.NodeOf
	if nodeOf == nil {
		nodeOf = make([]int, cfg.Size)
		if !cfg.Colocated {
			for i := range nodeOf {
				nodeOf[i] = i
			}
		}
	}
	if len(nodeOf) != cfg.Size {
		return nil, &xdev.Error{Dev: DeviceName, Op: "init",
			Err: fmt.Errorf("%w: places %d ranks, job has %d", xdev.ErrBadNodeMap, len(nodeOf), cfg.Size)}
	}
	d.cfg = cfg
	if cfg.Recorder != nil {
		d.rec = cfg.Recorder
	}
	d.session = cfg.Replay
	d.nodeOf = append([]int(nil), nodeOf...)
	d.myNode = nodeOf[cfg.Rank]
	d.nNodes = xdev.NodeCount(nodeOf)

	nioCfg := cfg
	nioCfg.NodeOf, nioCfg.Colocated = nil, false
	d.nio = niodev.New()
	pids, err := d.nio.Init(nioCfg)
	if err != nil {
		return nil, err
	}
	d.pids = pids
	d.self = pids[cfg.Rank]

	if cfg.Colocated {
		smpCfg := cfg
		smpCfg.NodeOf, smpCfg.Colocated = nil, false
		smpCfg.Group = cfg.Group + "!hybrid-smp"
		d.smp = smpdev.New()
		if _, err := d.smp.Init(smpCfg); err != nil {
			d.nio.Finish()
			return nil, err
		}
		// Merge the smp core's completion stream into the nio core's
		// queue before any traffic, so one Peek observes both.
		d.smp.Core().SetQueue(d.nio.Core().Queue())
		d.smp.Core().SetNotify(d.wakeProbes)
	}
	d.nio.Core().SetNotify(d.wakeProbes)

	d.local = make([]bool, cfg.Size)
	d.allLocal = d.smp != nil
	for slot, node := range d.nodeOf {
		d.local[slot] = d.smp != nil && node == d.myNode
		if !d.local[slot] {
			d.allLocal = false
		}
	}

	d.initDone = true
	return append([]xdev.ProcessID(nil), d.pids...), nil
}

// ID returns this process's ProcessID.
func (d *Device) ID() xdev.ProcessID { return d.self }

// route picks the inner device carrying traffic to dst.
func (d *Device) route(dst xdev.ProcessID) xdev.Device {
	if d.smp != nil && dst.UUID < uint64(len(d.local)) && d.local[dst.UUID] {
		return d.smp
	}
	return d.nio
}

// ready gates new operations.
func (d *Device) ready(op string) error {
	if !d.initDone || d.finished.Load() {
		return xdev.Errf(DeviceName, op, "device not ready")
	}
	return nil
}

// SendOverhead reports the worst-case per-message overhead across the
// two paths (the wire path's frame header), so upper layers size
// buffers safely for either route.
func (d *Device) SendOverhead() int { return d.nio.SendOverhead() }

// RecvOverhead reports the worst-case per-message overhead.
func (d *Device) RecvOverhead() int { return d.nio.RecvOverhead() }

// EagerLimit reports the wire path's eager→rendezvous switch point; the
// shared-memory path has no rendezvous.
func (d *Device) EagerLimit() int { return d.nio.EagerLimit() }

// ISend starts a standard-mode non-blocking send on the route to dst.
func (d *Device) ISend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	if err := d.ready("isend"); err != nil {
		return nil, err
	}
	return d.route(dst).ISend(buf, dst, tag, context)
}

// Send is the blocking standard-mode send.
func (d *Device) Send(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	if err := d.ready("send"); err != nil {
		return err
	}
	return d.route(dst).Send(buf, dst, tag, context)
}

// ISsend starts a synchronous-mode non-blocking send.
func (d *Device) ISsend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	if err := d.ready("issend"); err != nil {
		return nil, err
	}
	return d.route(dst).ISsend(buf, dst, tag, context)
}

// Ssend is the blocking synchronous-mode send.
func (d *Device) Ssend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	if err := d.ready("ssend"); err != nil {
		return err
	}
	return d.route(dst).Ssend(buf, dst, tag, context)
}

// IRecv posts a non-blocking receive. A specific source routes to one
// transport; ANY_SOURCE with both paths live dual-posts one claim-armed
// request into both cores, and whichever transport's message matches
// first wins (cross-core arbitration in devcore).
func (d *Device) IRecv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Request, error) {
	if err := d.ready("irecv"); err != nil {
		return nil, err
	}
	if !src.IsAnySource() {
		return d.route(src).IRecv(buf, src, tag, context)
	}
	if d.smp == nil {
		return d.nio.IRecv(buf, src, tag, context)
	}
	if d.allLocal {
		return d.smp.IRecv(buf, src, tag, context)
	}

	req := d.nio.Core().NewRequest(devcore.RecvReq, buf)
	req.OpCtx = int32(context)
	if d.rec.Enabled() {
		req.Trace(-1, int32(tag), int32(context))
		d.rec.Event(mpe.RecvPosted, -1, int32(tag), int32(context), 0)
	}
	// A record/replay session arbitrates the dual-post through a claim
	// decision: recording logs which core won with what (src,seq), and
	// replay short-circuits the race entirely — the request is posted
	// only into the recorded winner, narrowed to the recorded envelope,
	// and the match verifies the recorded (src,seq).
	if cd := d.session.OpenClaim(); cd != nil {
		req.SetClaimDecision(cd)
		core := d.nio.Core()
		if d.session.Recording() {
			core.Counters.DecisionsRecorded.Add(1)
		}
		if cd.Enforce {
			core.Counters.DecisionsEnforced.Add(1)
			srcPid := xdev.ProcessID{UUID: uint64(cd.Src)}
			var err error
			if cd.Dev == smpdev.DeviceName {
				err = d.smp.PostRecvReq(req, srcPid, int(cd.Tag), context)
			} else {
				err = d.nio.PostRecvReq(req, srcPid, int(cd.Tag), context)
			}
			if err != nil {
				return nil, err
			}
			return req, nil
		}
	}
	req.EnableClaim()
	// Post shared-memory first: a parked local message completes the
	// request immediately and the wire core never sees it.
	if err := d.smp.PostRecvReq(req, src, tag, context); err != nil {
		return nil, err
	}
	if err := d.nio.PostRecvReq(req, src, tag, context); err != nil {
		if errors.Is(err, devcore.ErrClaimed) {
			return req, nil // a local sender won the request mid-post
		}
		// Wire-side gate failure (closed/aborted/revoked). Claim the
		// request so the smp copy goes stale; if a local sender claimed
		// it first, the receive is already being delivered.
		if req.TryClaim() {
			return nil, err
		}
		return req, nil
	}
	return req, nil
}

// Recv blocks until a matching message has been received.
func (d *Device) Recv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	r, err := d.IRecv(buf, src, tag, context)
	if err != nil {
		return xdev.Status{}, err
	}
	return r.Wait()
}

// IProbe checks for a matching message on either transport without
// receiving it.
func (d *Device) IProbe(src xdev.ProcessID, tag, context int) (xdev.Status, bool, error) {
	if err := d.ready("iprobe"); err != nil {
		return xdev.Status{}, false, err
	}
	if !src.IsAnySource() {
		return d.route(src).IProbe(src, tag, context)
	}
	if d.smp != nil {
		st, ok, err := d.smp.IProbe(src, tag, context)
		if ok || err != nil {
			return st, ok, err
		}
	}
	return d.nio.IProbe(src, tag, context)
}

// wakeProbes is the notification hook both inner cores fire after any
// state change that could satisfy (or fail) a blocked probe.
func (d *Device) wakeProbes() {
	d.pmu.Lock()
	d.pgen++
	d.pcond.Broadcast()
	d.pmu.Unlock()
}

// Probe blocks until a matching message is available on either
// transport. A specific source delegates to its route's own blocking
// probe; ANY_SOURCE alternates non-blocking checks of both cores with
// a generation-counted wait on the shared notification hook, so no
// arrival, failure or shutdown on either transport is missed.
func (d *Device) Probe(src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	if err := d.ready("probe"); err != nil {
		return xdev.Status{}, err
	}
	if !src.IsAnySource() {
		return d.route(src).Probe(src, tag, context)
	}
	if d.smp == nil {
		return d.nio.Probe(src, tag, context)
	}
	for {
		d.pmu.Lock()
		gen := d.pgen
		d.pmu.Unlock()
		st, ok, err := d.IProbe(src, tag, context)
		if err != nil {
			return xdev.Status{}, err
		}
		if ok {
			return st, nil
		}
		d.pmu.Lock()
		for d.pgen == gen {
			d.pcond.Wait()
		}
		d.pmu.Unlock()
	}
}

// Peek blocks until some request completes — on either transport: the
// smp core's completions are merged into the nio core's queue at Init.
func (d *Device) Peek() (xdev.Request, error) {
	if d.nio == nil {
		return nil, xdev.Errf(DeviceName, "peek", "device not ready")
	}
	return d.nio.Peek()
}

// ReplayActive reports whether a record/replay session is installed
// (mpjdev's WaitAny skips its Test fast path while one is).
func (d *Device) ReplayActive() bool { return d.session != nil }

// Finish leaves the job on both transports: the shared-memory core
// shuts down first (failing its pending requests and propagating this
// rank's departure to node-local peers), then the wire device says
// goodbye to remote peers and tears the connections down. Blocked
// probes wake through the notification hooks either shutdown fires.
func (d *Device) Finish() error {
	if d.finished.Swap(true) || !d.initDone {
		return nil
	}
	if d.smp != nil {
		d.smp.Finish()
	}
	d.nio.Finish()
	d.wakeProbes()
	return nil
}

// Abort tears the whole job down: the wire device broadcasts the abort
// to every dialed peer (node-local ones included — the wire reaches
// ranks in other processes that shared memory cannot), and the
// shared-memory group aborts every colocated mailbox directly.
// Implements xdev.Aborter.
func (d *Device) Abort(code int) error {
	if !d.initDone {
		return nil
	}
	d.nio.Abort(code)
	if d.smp != nil {
		d.smp.Abort(code)
	}
	d.wakeProbes()
	return nil
}

// Revoke poisons the matching context on both transports: direct board
// iteration over the colocated mailboxes, a revoke flood over the
// wire. Both halves are idempotent, so the overlap (a peer revoked
// both ways) converges. Implements xdev.Revoker.
func (d *Device) Revoke(context int) error {
	if err := d.ready("revoke"); err != nil {
		return err
	}
	if d.smp != nil {
		if err := d.smp.Revoke(context); err != nil {
			return err
		}
	}
	return d.nio.Revoke(context)
}

// PeerErr reports the recorded death error of peer p from whichever
// transport noticed it first (xdev.PeerChecker).
func (d *Device) PeerErr(p xdev.ProcessID) error {
	if d.smp != nil {
		if err := d.smp.PeerErr(p); err != nil {
			return err
		}
	}
	if d.nio == nil {
		return nil
	}
	return d.nio.PeerErr(p)
}

// MemoryDomain names the shared in-process namespace — but only when
// the whole job is one node. A simulated multi-node job deliberately
// withholds it so one-sided operations exercise the routed
// active-message path, the same honesty that keeps inter-"node"
// traffic on the wire (xdev.MemoryDomain).
func (d *Device) MemoryDomain() (string, bool) {
	if !d.initDone || d.smp == nil || d.nNodes != 1 {
		return "", false
	}
	return d.smp.MemoryDomain()
}

// Stats merges the activity counters of both transports
// (mpe.StatsSource).
func (d *Device) Stats() mpe.CounterSnapshot {
	if d.nio == nil {
		return mpe.CounterSnapshot{}
	}
	st := d.nio.Stats()
	if d.smp != nil {
		st = st.Add(d.smp.Stats())
	}
	return st
}

// CountersRef exposes one live counter block for upper-layer
// accounting (mpe.CounterSource). Collective/RMA counts land on the
// wire core's block and appear once in the merged Stats.
func (d *Device) CountersRef() *mpe.Counters {
	if d.nio == nil {
		return nil
	}
	return d.nio.CountersRef()
}

// Recorder exposes the device's event recorder (mpe.Instrumented).
func (d *Device) Recorder() mpe.Recorder { return d.rec }

// Introspect snapshots both transports for the telemetry /introspect
// endpoint, plus the routing view itself.
func (d *Device) Introspect() any {
	out := struct {
		NodeOf []int `json:"nodeOf,omitempty"`
		MyNode int   `json:"myNode"`
		Nodes  int   `json:"nodes"`
		Smp    any   `json:"smp,omitempty"`
		Nio    any   `json:"nio,omitempty"`
	}{NodeOf: d.nodeOf, MyNode: d.myNode, Nodes: d.nNodes}
	if d.smp != nil {
		out.Smp = d.smp.Introspect()
	}
	if d.nio != nil {
		out.Nio = d.nio.Introspect()
	}
	return out
}

var (
	_ xdev.Device      = (*Device)(nil)
	_ xdev.Aborter     = (*Device)(nil)
	_ xdev.Revoker     = (*Device)(nil)
	_ xdev.PeerChecker = (*Device)(nil)
	_ mpe.Instrumented = (*Device)(nil)
)

// Package hybriddev composes two transports behind one xdev.Device —
// the hierarchical, node-aware device the paper's pluggable xdev layer
// (Fig. 2) was designed to admit. Each peer is classified by the job's
// node placement (xdev.Config.NodeOf, plumbed from mpjrun/MPJ_NODE_MAP):
//
//   - node-local peers talk over an smpdev mailbox — one in-memory
//     copy, no wire, no protocol switch;
//   - remote peers ride niodev's wire — eager/rendezvous protocols,
//     CRC framing, abort/revoke broadcast.
//
// Both transports run on one devcore.Core, the rank's single matching
// engine: on a colocated job it is the core the rank's smp group made
// for it, and niodev is built on that core, so a node-local message
// and a wire arrival park in the same posted and arrived sets. The
// device is devcore's point-to-point front end over that core with a
// routing Port: a send goes to the mailbox or the wire by destination,
// a parked arrival is delivered by the transport that brought it. An
// ANY_SOURCE receive is one post into one core, a blocking probe waits
// on that core's condition variable, and one Peek sees every
// completion.
//
// The shared-memory path is only taken when the runtime explicitly
// declares the job colocated (Config.Colocated — RunLocal and the
// in-process test runners); a multi-process job degrades to all-niodev
// routing while the placement still steers the topology-aware
// collectives above. Revoke and Abort fan out through both transports.
package hybriddev

import (
	"fmt"

	"mpj/internal/devcore"
	"mpj/internal/mpe"
	"mpj/internal/niodev"
	"mpj/internal/smpdev"
	"mpj/internal/xdev"
)

// DeviceName is the registry name of this device.
const DeviceName = "hybrid"

func init() {
	xdev.Register(DeviceName, func() xdev.Device { return New() })
}

// Device routes between an smpdev mailbox (node-local peers) and
// niodev's wire (remote peers) by job placement, over one core.
type Device struct {
	devcore.Front

	self   xdev.ProcessID
	nodeOf []int // slot -> node id
	myNode int
	nNodes int

	nio *niodev.Device
	smp *smpdev.Device // nil unless the job is colocated

	// local[slot] reports whether slot routes over the mailbox; self is
	// local whenever the smp inner exists.
	local         []bool
	mailbox, wire devcore.Port
}

// New returns an uninitialized hybrid device.
func New() *Device {
	d := &Device{}
	d.Bind(DeviceName, router{d})
	return d
}

// Init joins the job on both transports. On a colocated job the rank
// first joins its node's smp group, whose core becomes the rank's one
// core, and niodev then runs on that core; otherwise niodev runs on a
// core of its own. niodev dials every peer — node-local ones included —
// so abort/revoke broadcasts and remote traffic always have a wire.
// Placement comes from cfg.NodeOf; with no placement, a colocated job
// is one node and a distributed job is one rank per node.
func (d *Device) Init(cfg xdev.Config) ([]xdev.ProcessID, error) {
	if d.nio != nil {
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
	d.nodeOf = append([]int(nil), nodeOf...)
	d.myNode = nodeOf[cfg.Rank]
	d.nNodes = xdev.NodeCount(nodeOf)

	inner := cfg
	inner.NodeOf, inner.Colocated = nil, false
	if cfg.Colocated {
		// One smp group per node: only node-local ranks share a
		// mailbox, so a departure the group propagates directly never
		// overtakes a remote rank's frames still on the wire.
		smpCfg := inner
		smpCfg.Group = fmt.Sprintf("%s!hybrid-smp-%d", cfg.Group, d.myNode)
		d.smp = smpdev.New()
		if _, err := d.smp.Init(smpCfg); err != nil {
			return nil, err
		}
		d.nio = niodev.NewOn(d.smp.Core())
		d.mailbox = d.smp.Port()
	} else {
		d.nio = niodev.New()
	}
	d.wire = d.nio.Port()
	pids, err := d.nio.Init(inner)
	if err != nil {
		if d.smp != nil {
			d.smp.Finish()
		}
		return nil, err
	}
	d.self = pids[cfg.Rank]
	d.local = make([]bool, cfg.Size)
	for slot, node := range d.nodeOf {
		d.local[slot] = d.smp != nil && node == d.myNode
	}
	d.Attach(d.nio.Core(), cfg.Size)
	return pids, nil
}

// router is the device's devcore.Port: node-local traffic through the
// smp mailbox, the rest through niodev's wire, both on the one core.
type router struct{ *Device }

// StartSend hands the send to the transport that reaches slot.
func (r router) StartSend(req *devcore.Request, slot uint64, tag, context int, sync bool) error {
	if r.local[slot] {
		return r.mailbox.StartSend(req, slot, tag, context, sync)
	}
	return r.wire.StartSend(req, slot, tag, context, sync)
}

// Deliver hands a parked arrival to the transport that brought it: a
// node-local sender's wire-form copy, or a wire frame (an eager payload
// or a rendezvous announcement).
func (r router) Deliver(req *devcore.Request, a *devcore.Arrival) {
	if r.local[a.Src] {
		r.mailbox.Deliver(req, a)
		return
	}
	r.wire.Deliver(req, a)
}

// ID returns this process's ProcessID.
func (d *Device) ID() xdev.ProcessID { return d.self }

// SendOverhead reports the worst-case per-message overhead across the
// two paths (the wire path's frame header), so upper layers size
// buffers safely for either route.
func (d *Device) SendOverhead() int { return d.nio.SendOverhead() }

// RecvOverhead reports the worst-case per-message overhead.
func (d *Device) RecvOverhead() int { return d.nio.RecvOverhead() }

// EagerLimit reports the wire path's eager→rendezvous switch point; the
// shared-memory path has no rendezvous.
func (d *Device) EagerLimit() int { return d.nio.EagerLimit() }

// Finish leaves the job on both transports. The shared-memory half
// shuts the core down first — failing its pending requests — and
// propagates this rank's departure to node-local peers; then the wire
// says goodbye to every peer and tears the connections down. Each half
// is idempotent, and the core's first Shutdown wins.
func (d *Device) Finish() error {
	if d.Core() == nil {
		return nil
	}
	if d.smp != nil {
		d.smp.Finish()
	}
	return d.nio.Finish()
}

// Abort tears the whole job down: the wire broadcasts the abort to
// every dialed peer (node-local ones included — the wire reaches ranks
// in other processes that shared memory cannot), and the shared-memory
// group aborts every node-local core directly. Implements xdev.Aborter.
func (d *Device) Abort(code int) error {
	if d.Core() == nil {
		return nil
	}
	d.nio.Abort(code)
	if d.smp != nil {
		d.smp.Abort(code)
	}
	return nil
}

// Revoke poisons the matching context: the wire floods it to every
// peer first — it acts only on the first revocation the core records —
// then the node-local cores are revoked directly. Both halves are
// idempotent, so the overlap converges. Implements xdev.Revoker.
func (d *Device) Revoke(context int) error {
	if c := d.Core(); c == nil || c.Closed() {
		return xdev.Errf(DeviceName, "revoke", "device not ready: %w", xdev.ErrDeviceClosed)
	}
	if err := d.nio.Revoke(context); err != nil {
		return err
	}
	if d.smp != nil {
		return d.smp.Revoke(context)
	}
	return nil
}

// PeerErr reports the recorded death error of peer p (xdev.PeerChecker):
// either transport records a departure on the one core, so a peer
// either one saw leave is lost to both.
func (d *Device) PeerErr(p xdev.ProcessID) error {
	if d.Core() == nil {
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
	if d.Core() == nil || d.smp == nil || d.nNodes != 1 {
		return "", false
	}
	return d.smp.MemoryDomain()
}

// Introspect snapshots the routing view and the wire device — the one
// core and the per-peer connections — for the telemetry /introspect
// endpoint.
func (d *Device) Introspect() any {
	out := struct {
		NodeOf []int `json:"nodeOf,omitempty"`
		MyNode int   `json:"myNode"`
		Nodes  int   `json:"nodes"`
		Nio    any   `json:"nio,omitempty"`
	}{NodeOf: d.nodeOf, MyNode: d.myNode, Nodes: d.nNodes}
	if d.Core() != nil {
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

// Package xdev defines the MPJ Express low-level device API (paper
// Fig. 2). A Device provides raw, thread-safe point-to-point messaging
// between processes identified by opaque ProcessIDs. It knows nothing
// about MPI groups, communicators, or ranks — those abstractions live in
// the mpjdev and core layers above. Contexts and tags pass through the
// device solely for message matching.
//
// Implementations in this repository. The product devices, which the
// mpj package links and Options.Device / MPJ_DEVICE select:
//
//   - niodev    — pure-Go TCP device with eager and rendezvous protocols
//   - smpdev    — shared-memory device for ranks within one process
//   - hybriddev — routes node-local peers over smpdev, remote over niodev
//
// The paper-comparison apparatus, linked only by tests and the
// paper-figure commands:
//
//   - mxdev   — device over the simulated Myrinet eXpress library (mxsim)
//   - ibisdev — an MPJ/Ibis-style baseline (thread per operation)
package xdev

import (
	"fmt"
	"sort"
	"sync"

	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/replay"
)

// Wildcard tag and matching constants. Context values are assigned by
// the communicator layer and never wildcarded.
const (
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// ProcessID identifies a process at the device level. The device layer
// deliberately has no notion of rank; the mapping from MPI ranks to
// ProcessIDs belongs to the layers above.
type ProcessID struct {
	// UUID is a job-unique process identifier.
	UUID uint64
}

// AnySource is the wildcard ProcessID matching a message from any peer.
var AnySource = ProcessID{UUID: ^uint64(0)}

// IsAnySource reports whether p is the source wildcard.
func (p ProcessID) IsAnySource() bool { return p == AnySource }

// String returns a compact form for logs and errors.
func (p ProcessID) String() string {
	if p.IsAnySource() {
		return "ANY_SOURCE"
	}
	return fmt.Sprintf("pid(%d)", p.UUID)
}

// Status describes a completed (or probed) receive.
type Status struct {
	// Source is the process the message came from.
	Source ProcessID
	// Tag is the message tag.
	Tag int
	// Bytes is the wire payload length of the message.
	Bytes int
}

// Request represents an in-flight non-blocking operation.
//
// The paper's peek() contract requires the device to hand back the most
// recently completed Request object; mpjdev attaches its WaitAny
// bookkeeping to the request via the Attachment mechanism.
type Request interface {
	// Wait blocks until the operation completes and returns its status.
	// The status of a send operation has zero Source/Tag meaning.
	Wait() (Status, error)
	// Test reports without blocking whether the operation has completed.
	Test() (Status, bool, error)
	// SetAttachment associates opaque upper-layer state with the
	// request; nil clears it, and successive values may differ in type.
	SetAttachment(v any)
	// Attachment returns the value set by SetAttachment, or nil.
	Attachment() any
}

// Config carries everything a device needs to join a job at Init time.
// It replaces the string[] args of the Java API with a typed struct.
type Config struct {
	// Rank and Size describe this process's position in the job. The
	// device uses them only to index Addrs and to derive ProcessIDs.
	Rank int
	Size int
	// Addrs maps job slot -> listen address. Required by network
	// devices; ignored by in-process devices.
	Addrs []string
	// Dialer abstracts the byte transport (real TCP, in-process pipes,
	// or throttled/simulated links). Nil selects the device default.
	Dialer Transport
	// EagerLimit is the protocol switch point in bytes: messages with a
	// wire length at or below the limit use the eager protocol, larger
	// ones use rendezvous. Zero selects the device default (128 KiB,
	// the figure the paper reports for TCP). Every rank of a job must
	// use the same value: a receiver rejects an eager frame above its
	// own limit as corrupt.
	EagerLimit int
	// Group names an in-process job namespace for devices (smpdev,
	// mxdev) that rendezvous through process-local registries.
	Group string
	// Recorder receives protocol and request-lifecycle events from
	// the device and the layers above it (see internal/mpe). Nil
	// means tracing is disabled; devices substitute mpe.Nop.
	Recorder mpe.Recorder
	// DisableChecksum turns off per-frame integrity checksums on
	// devices that support them (niodev's CRC32C). Checksums are on by
	// default; each side advertises its setting in the connection
	// handshake, and a frame is only verified when its sender computed
	// the checksum.
	DisableChecksum bool
	// NodeOf maps job slot -> node id (dense, 0-based; see
	// ParseNodeMap), the placement the runtime derived from daemon
	// assignment or MPJ_NODE_MAP. Topology-aware devices (hybriddev)
	// route by it and topology-aware collectives build node-leader
	// trees from it. Nil means placement is unknown: devices assume
	// the degenerate topology natural to them.
	NodeOf []int
	// Colocated declares that every rank of the job runs in this OS
	// process (RunLocal, in-process test runners). Only then may a
	// composing device route node-local traffic over shared memory;
	// it is never inferred, because a wrong guess would strand
	// cross-process messages in a process-local mailbox.
	Colocated bool
	// Replay is this rank's record/replay session (internal/replay):
	// when non-nil the device records every nondeterministic decision
	// it makes — wildcard match resolutions, completion-pop order,
	// dual-post claim arbitration — into the session, and under replay
	// enforces the recorded outcomes. Nil means record/replay is off.
	// A composing device passes the same session to every inner device.
	Replay *replay.Session
}

// Device is the xdev API of paper Fig. 2. All methods are safe for
// concurrent use by multiple goroutines (MPI_THREAD_MULTIPLE).
type Device interface {
	// Init joins the job and returns the ProcessIDs of all job members
	// indexed by slot; the slot order is identical across processes.
	Init(cfg Config) ([]ProcessID, error)
	// ID returns this process's ProcessID.
	ID() ProcessID
	// Finish leaves the job and releases device resources.
	Finish() error

	// SendOverhead and RecvOverhead report the per-message byte
	// overhead the device adds to a buffer's wire form, so upper
	// layers can size buffers.
	SendOverhead() int
	RecvOverhead() int

	// ISend starts a standard-mode non-blocking send.
	ISend(buf *mpjbuf.Buffer, dst ProcessID, tag, context int) (Request, error)
	// Send is a blocking standard-mode send.
	Send(buf *mpjbuf.Buffer, dst ProcessID, tag, context int) error
	// ISsend starts a synchronous-mode non-blocking send: the request
	// completes only after the receiver has matched the message.
	ISsend(buf *mpjbuf.Buffer, dst ProcessID, tag, context int) (Request, error)
	// Ssend is a blocking synchronous-mode send.
	Ssend(buf *mpjbuf.Buffer, dst ProcessID, tag, context int) error

	// IRecv starts a non-blocking receive into buf.
	IRecv(buf *mpjbuf.Buffer, src ProcessID, tag, context int) (Request, error)
	// Recv blocks until a matching message has been received into buf.
	Recv(buf *mpjbuf.Buffer, src ProcessID, tag, context int) (Status, error)

	// Probe blocks until a matching message is available and returns
	// its envelope without receiving it.
	Probe(src ProcessID, tag, context int) (Status, error)
	// IProbe is the non-blocking form of Probe; ok reports a match.
	IProbe(src ProcessID, tag, context int) (Status, bool, error)

	// Peek blocks until some request completes and returns the most
	// recently completed Request (idea borrowed from Myrinet eXpress).
	// It is the primitive beneath mpjdev's Waitany.
	Peek() (Request, error)
}

// MemoryDomain is an optional capability of devices whose job members
// share one address space (smpdev). Such a device names its shared
// domain, letting one-sided layers (internal/rma) rendezvous through a
// process-local registry and complete Put/Get as direct memory copies
// instead of active messages. Devices whose ranks may live in separate
// processes must not implement it.
type MemoryDomain interface {
	// MemoryDomain returns a job-unique namespace shared by every rank
	// of the job, and true. Returning false disables the shared-memory
	// path (e.g. before Init).
	MemoryDomain() (string, bool)
}

// PeerChecker is an optional capability of devices that can report
// whether a specific peer is known to be gone. One-sided
// synchronization (rma.Fence/Unlock) polls it so an epoch blocked on a
// dead peer fails with an error wrapping ErrPeerLost instead of
// hanging. A nil return means the peer is alive as far as the device
// knows — it is not a liveness guarantee.
type PeerChecker interface {
	PeerErr(p ProcessID) error
}

// Error is the xdev error type (the Java XDevException).
type Error struct {
	Dev string // device name
	Op  string // operation
	Err error  // cause
}

func (e *Error) Error() string { return e.Dev + ": " + e.Op + ": " + e.Err.Error() }

// Unwrap returns the cause.
func (e *Error) Unwrap() error { return e.Err }

// Errf builds an *Error with a formatted cause.
func Errf(dev, op, format string, args ...any) *Error {
	return &Error{Dev: dev, Op: op, Err: fmt.Errorf(format, args...)}
}

// ---- device registry (Device.newInstance in the Java API) ----

var (
	regMu    sync.RWMutex
	registry = map[string]func() Device{}
)

// Register makes a device constructor available to NewInstance. It is
// intended to be called from package init functions of device packages.
func Register(name string, factory func() Device) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("xdev: duplicate device registration: " + name)
	}
	registry[name] = factory
}

// NewInstance returns a fresh, uninitialized device of the named kind.
func NewInstance(name string) (Device, error) {
	regMu.RLock()
	factory, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("xdev: unknown device %q (registered: %v)", name, Names())
	}
	return factory(), nil
}

// Names lists the registered device names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

package core

import (
	"fmt"
	"sync"

	"mpj/internal/mpe"
	"mpj/internal/mpjdev"
	"mpj/internal/replay"
	"mpj/internal/xdev"
)

// ThreadLevel is an MPI-2.0 thread-support level (§IV-B). The paper
// notes there were no Java bindings for these in MPI 1.2 and plans to
// add them; this reproduction includes them.
type ThreadLevel int

// Thread-support levels, in increasing order of freedom.
const (
	// ThreadSingle: only one thread executes.
	ThreadSingle ThreadLevel = iota
	// ThreadFunneled: only the main thread makes MPI calls.
	ThreadFunneled
	// ThreadSerialized: any thread, one at a time.
	ThreadSerialized
	// ThreadMultiple: any thread, any time — MPJ Express's default and
	// the level this library always provides.
	ThreadMultiple
)

var threadLevelNames = map[ThreadLevel]string{
	ThreadSingle:     "MPI_THREAD_SINGLE",
	ThreadFunneled:   "MPI_THREAD_FUNNELED",
	ThreadSerialized: "MPI_THREAD_SERIALIZED",
	ThreadMultiple:   "MPI_THREAD_MULTIPLE",
}

// String returns the MPI constant name.
func (l ThreadLevel) String() string {
	if s, ok := threadLevelNames[l]; ok {
		return s
	}
	return fmt.Sprintf("ThreadLevel(%d)", int(l))
}

// Process is one MPI process: the per-process state the Java bindings
// keep in the static MPI class. Keeping it in an object lets a single
// Go test or SMP application run many ranks in one address space.
type Process struct {
	dev      xdev.Device
	pids     []xdev.ProcessID
	world    *Intracomm
	provided ThreadLevel

	// nodeOf is the job's rank→node placement (xdev.Config.NodeOf):
	// world slot i runs on node nodeOf[i]. nil means unknown, which
	// every topology query treats as a single node — the collectives
	// then never pick a hierarchical algorithm. Set at InitThread from
	// the config, or by SetNodeMap for Attach-based harnesses.
	nodeOf []int

	rec mpe.Recorder
	// replay is the rank's record/replay session (nil when neither
	// MPJ_RECORD nor MPJ_REPLAY is active). The device layer enforces
	// matching and pop order; core only records/verifies agreement
	// outcomes, which never reach devcore as match decisions.
	replay *replay.Session
	// counters points at the device's live counter block when the
	// device exposes one (mpe.CounterSource), or at a shared discard
	// block otherwise — never nil, so hot paths bump unconditionally.
	counters *mpe.Counters

	mu        sync.Mutex
	nextCtx   int
	finalized bool
	finHooks  []func()

	// Fault-tolerance registries (see ft.go), keyed by a communicator's
	// point-to-point context — communicator values may be copied (the
	// topology communicators embed Intracomm by value), so per-comm
	// mutable state lives here rather than in Comm. fts holds each
	// communicator's lazily-started agreement state; wins the windows
	// created on it, which Revoke poisons along with the contexts.
	ftMu  sync.Mutex
	fts   map[int]*ftState
	winMu sync.Mutex
	wins  map[int][]*Win

	// Buffered-send pool (MPI_Buffer_attach).
	bsendMu    sync.Mutex
	bsendCap   int
	bsendInUse int
}

// Init initializes a process on an already-configured device and
// returns its handle; the world communicator covers all job processes.
// It is MPI_Init: thread level defaults to ThreadMultiple.
func Init(dev xdev.Device, cfg xdev.Config) (*Process, error) {
	p, _, err := InitThread(dev, cfg, ThreadMultiple)
	return p, err
}

// InitThread is MPI_Init_thread: it initializes the process requesting
// the given thread level and returns the provided level, which is
// always ThreadMultiple — the library's communication path is fully
// thread safe, so every request can be granted in full.
func InitThread(dev xdev.Device, cfg xdev.Config, required ThreadLevel) (*Process, ThreadLevel, error) {
	if required < ThreadSingle || required > ThreadMultiple {
		return nil, 0, fmt.Errorf("core: invalid thread level %d", int(required))
	}
	pids, err := dev.Init(cfg)
	if err != nil {
		return nil, 0, err
	}
	p := &Process{dev: dev, pids: pids, provided: ThreadMultiple, rec: mpe.RecorderOf(dev), counters: mpe.CountersOf(dev), replay: cfg.Replay}
	if len(cfg.NodeOf) == len(pids) {
		p.nodeOf = append([]int(nil), cfg.NodeOf...)
	}
	world, err := p.newIntracomm(NewGroup(pids), cfg.Rank)
	if err != nil {
		dev.Finish()
		return nil, 0, err
	}
	p.world = world
	return p, p.provided, nil
}

// Attach builds a Process over a device that is already initialized —
// its Init has run and produced pids, of which the caller is rank. The
// test harnesses use it to layer MPI semantics onto devices their
// runners manage; Finalize still finishes the device.
func Attach(dev xdev.Device, pids []xdev.ProcessID, rank int) (*Process, error) {
	if rank < 0 || rank >= len(pids) {
		return nil, fmt.Errorf("core: Attach: rank %d out of range [0,%d)", rank, len(pids))
	}
	p := &Process{dev: dev, pids: pids, provided: ThreadMultiple, rec: mpe.RecorderOf(dev), counters: mpe.CountersOf(dev)}
	world, err := p.newIntracomm(NewGroup(pids), rank)
	if err != nil {
		return nil, err
	}
	p.world = world
	return p, nil
}

// SetNodeMap installs the job's rank→node placement after the fact,
// for harnesses that build processes with Attach (which has no
// xdev.Config to carry it). len(nodeOf) must be the world size; call
// it before any collective runs — placement steers algorithm choice,
// which must agree on every rank.
func (p *Process) SetNodeMap(nodeOf []int) error {
	if len(nodeOf) != len(p.pids) {
		return fmt.Errorf("core: SetNodeMap: placement covers %d ranks, world has %d", len(nodeOf), len(p.pids))
	}
	p.nodeOf = append([]int(nil), nodeOf...)
	return nil
}

// NodeMap returns the job's rank→node placement, or nil when unknown.
func (p *Process) NodeMap() []int {
	if p.nodeOf == nil {
		return nil
	}
	return append([]int(nil), p.nodeOf...)
}

// World returns the COMM_WORLD communicator.
func (p *Process) World() *Intracomm { return p.world }

// Rank returns the process's world rank.
func (p *Process) Rank() int { return p.world.Rank() }

// Size returns the world size.
func (p *Process) Size() int { return p.world.Size() }

// QueryThread returns the provided thread level (MPI_Query_thread).
func (p *Process) QueryThread() ThreadLevel { return p.provided }

// Device exposes the underlying communication device.
func (p *Process) Device() xdev.Device { return p.dev }

// AddFinalizeHook registers fn to run when Finalize is called, after
// the device has shut down — the device's progress goroutines have
// quiesced by then, so trace collectors observe a stable recorder and
// final counter values. Hooks run in registration order; adding a hook
// after Finalize is a no-op.
func (p *Process) AddFinalizeHook(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.finalized {
		p.finHooks = append(p.finHooks, fn)
	}
}

// Finalize shuts down the process's communication (MPI_Finalize).
func (p *Process) Finalize() error {
	p.mu.Lock()
	if p.finalized {
		p.mu.Unlock()
		return nil
	}
	p.finalized = true
	hooks := p.finHooks
	p.finHooks = nil
	p.mu.Unlock()
	err := p.dev.Finish()
	for _, fn := range hooks {
		fn()
	}
	return err
}

// Finalized reports whether Finalize has been called.
func (p *Process) Finalized() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.finalized
}

// allocContexts hands out the next pair of matching contexts
// (point-to-point, collective). MPI requires all members of a
// communicator to execute communicator-creation calls in the same
// order, which keeps these counters in agreement across processes.
func (p *Process) allocContexts() (ptp, coll int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ptp = p.nextCtx
	coll = p.nextCtx + 1
	p.nextCtx += 2
	return ptp, coll
}

// newIntracomm assembles an intracommunicator over the group with
// freshly allocated contexts. rank is this process's rank in group.
func (p *Process) newIntracomm(group *Group, rank int) (*Intracomm, error) {
	ptpCtx, collCtx := p.allocContexts()
	if rank == Undefined {
		return nil, nil // not a member; contexts still consumed
	}
	ptp, err := mpjdev.NewComm(p.dev, group.pids, rank, ptpCtx)
	if err != nil {
		return nil, err
	}
	coll, err := mpjdev.NewComm(p.dev, group.pids, rank, collCtx)
	if err != nil {
		return nil, err
	}
	return &Intracomm{Comm: Comm{p: p, group: group, ptp: ptp, coll: coll}}, nil
}

// BufferAttach provides buffer space for buffered-mode sends
// (MPI_Buffer_attach). The size is in bytes of packed message data.
func (p *Process) BufferAttach(size int) error {
	if size < 0 {
		return fmt.Errorf("core: BufferAttach: negative size")
	}
	p.bsendMu.Lock()
	defer p.bsendMu.Unlock()
	if p.bsendCap != 0 {
		return fmt.Errorf("core: BufferAttach: buffer already attached")
	}
	p.bsendCap = size
	return nil
}

// BufferDetach removes the buffered-send buffer and returns its size
// (MPI_Buffer_detach).
func (p *Process) BufferDetach() int {
	p.bsendMu.Lock()
	defer p.bsendMu.Unlock()
	size := p.bsendCap
	p.bsendCap = 0
	p.bsendInUse = 0
	return size
}

// reserveBsend claims space for one buffered send, failing when the
// attached buffer cannot hold the message (MPI_ERR_BUFFER).
func (p *Process) reserveBsend(n int) error {
	p.bsendMu.Lock()
	defer p.bsendMu.Unlock()
	if p.bsendCap == 0 {
		return fmt.Errorf("core: buffered send without an attached buffer")
	}
	if p.bsendInUse+n > p.bsendCap {
		return fmt.Errorf("core: buffered send of %d bytes exceeds attached buffer (%d of %d in use)",
			n, p.bsendInUse, p.bsendCap)
	}
	p.bsendInUse += n
	return nil
}

func (p *Process) releaseBsend(n int) {
	p.bsendMu.Lock()
	if p.bsendInUse >= n {
		p.bsendInUse -= n
	} else {
		p.bsendInUse = 0
	}
	p.bsendMu.Unlock()
}

// Package rma implements one-sided communication (MPI-2 RMA) over the
// mpjdev point-to-point layer: windows of rank-local memory that any
// rank reads, writes and combines into with Put, Get and Accumulate,
// without the target posting a matching receive.
//
// Delivery is device-differentiated. On a shared-address-space device
// (xdev.MemoryDomain — smpdev), every rank's window region is
// published on a process-global board, so a Put is a mutex-guarded
// memcpy into the target's memory with zero steady-state allocation;
// only synchronization (Fence, Lock/Unlock) exchanges messages. On
// message-passing devices (niodev, mxdev, ibisdev), data operations
// ride active-message frames on the window's private context: each
// window runs one handler goroutine that receives frames and applies
// them to the local region, and large transfers are segmented so
// frames stay inside the device's eager limit.
//
// Synchronization follows MPI-2: Fence closes an active-target epoch —
// after every rank's Fence returns, all one-sided operations issued
// before it are visible everywhere; Lock/Unlock bracket passive-target
// epochs, with shared locks admitting concurrent readers and an
// exclusive lock serializing a writer against everyone. A peer dying
// mid-epoch fails Fence/Lock/Unlock with an error satisfying
// errors.Is(err, xdev.ErrPeerLost) instead of hanging: every blocking
// wait polls the device's xdev.PeerChecker.
package rma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/mpjdev"
	"mpj/internal/xdev"
)

// DefaultSegment caps the payload size one-sided transfers are split
// into on the active-message path. On a device that reports an eager
// limit the segment shrinks until a whole frame fits under it (see
// segmentFor), so RMA frames never enter a rendezvous exchange — the
// target's handler must stay non-blocking.
const DefaultSegment = 64 << 10

// eagerLimiter is a device whose sends switch from eager to rendezvous
// above a frame size (niodev, hybriddev).
type eagerLimiter interface {
	EagerLimit() int
}

// segmentFor returns the payload size one-sided transfers over dev are
// split into: the largest multiple of 8 bytes, at most DefaultSegment,
// whose packed frame stays within dev's eager limit. A device that
// reports no limit gets DefaultSegment.
func segmentFor(dev xdev.Device) (int, error) {
	el, ok := dev.(eagerLimiter)
	if !ok {
		return DefaultSegment, nil
	}
	limit := el.EagerLimit()
	probe, err := packFrame(frPut, 0, 0, 8, 0, 0, make([]byte, 8))
	if err != nil {
		return 0, err
	}
	framing := probe.WireLen() - 8
	seg := min(DefaultSegment, limit-framing) &^ 7
	if seg < 8 {
		return 0, fmt.Errorf("rma: eager limit of %d bytes cannot carry a one-sided frame (%d bytes of framing + 8 of payload)", limit, framing)
	}
	return seg, nil
}

// maxOutstanding bounds the unacknowledged Put/Accumulate segments an
// origin keeps in flight before it waits for acks — backpressure so a
// tight one-sided loop cannot bury a target.
const maxOutstanding = 64

// pollEvery is how often a blocked synchronization call re-checks peer
// liveness while waiting for remote progress.
const pollEvery = 25 * time.Millisecond

// rmaTag is the only tag used on the window's private context.
const rmaTag = 0

// Errors reported by window operations.
var (
	// ErrOutOfRange reports an access outside the target's window.
	ErrOutOfRange = errors.New("rma: access outside window bounds")
	// ErrFreed reports an operation on a freed window.
	ErrFreed = errors.New("rma: window freed")
)

// Config tunes a window.
type Config struct {
	// Counters receives RmaPuts/RmaGets/RmaAccs/RmaBytes accounting;
	// nil discards it.
	Counters *mpe.Counters
	// Recorder receives RmaPut/RmaGet/RmaAcc events and RmaFence spans;
	// nil disables tracing.
	Recorder mpe.Recorder
}

// repWait is one origin-side slot awaiting a remote reply (a Get
// segment's data, a lock grant, an unlock ack).
type repWait struct {
	dst  []byte // Get only: where the payload lands
	err  error  // written before done is closed
	done chan struct{}
}

// lockReq is a queued passive-target lock request at this window.
type lockReq struct {
	src    int
	opID   uint64
	shared bool
}

// Win is one rank's view of a window: the local exposed region plus
// the machinery to reach every other rank's.
type Win struct {
	comm    *mpjdev.Comm
	seg     int
	ctr     *mpe.Counters
	rec     mpe.Recorder
	checker xdev.PeerChecker // nil when the device cannot report liveness

	local  *region
	shmKey string
	shm    *shmGroup // non-nil on shared-address-space devices

	epochBytes atomic.Int64 // origin bytes since the last fence, for the fence histogram

	mu      sync.Mutex
	change  chan struct{} // closed+replaced on every state change (generation broadcast)
	failed  error
	freed   bool
	epoch   int64
	fences  map[int64]int // epoch -> fence frames received
	pending []int         // per-target unacked Put/Acc segments
	pendTot int
	nextOp  uint64
	waits   map[uint64]*repWait

	// Passive-target lock state of the LOCAL window, driven by the
	// handler.
	exclHolder    int // rank holding the exclusive lock, -1 when none
	sharedHolders map[int]bool
	lkQ           []lockReq

	hdone chan struct{} // closed when the handler goroutine exits
}

// New creates this rank's side of a window exposing buf. It is
// collective over comm's group: every rank must call it, and it
// completes with an initial fence so that when it returns, every
// rank's window exists and its handler is running. The comm must be
// private to the window (a dedicated context); rma owns tag 0 on it.
func New(comm *mpjdev.Comm, buf []byte, cfg Config) (*Win, error) {
	seg, err := segmentFor(comm.Device())
	if err != nil {
		return nil, err
	}
	ctr := cfg.Counters
	if ctr == nil {
		ctr = mpe.CountersOf(nil)
	}
	var rec mpe.Recorder = mpe.Nop{}
	if cfg.Recorder != nil {
		rec = cfg.Recorder
	}
	w := &Win{
		comm:          comm,
		seg:           seg,
		ctr:           ctr,
		rec:           rec,
		local:         &region{buf: buf},
		change:        make(chan struct{}),
		fences:        make(map[int64]int),
		pending:       make([]int, comm.Size()),
		waits:         make(map[uint64]*repWait),
		exclHolder:    -1,
		sharedHolders: make(map[int]bool),
		hdone:         make(chan struct{}),
	}
	if ck, ok := comm.Device().(xdev.PeerChecker); ok {
		w.checker = ck
	}
	if md, ok := comm.Device().(xdev.MemoryDomain); ok {
		if dom, ok := md.MemoryDomain(); ok {
			w.shmKey = fmt.Sprintf("%s/ctx%d", dom, comm.Context())
			w.shm = shmJoin(w.shmKey, comm.Size(), comm.Rank(), w.local)
		}
	}
	go w.loop()
	regAdd(comm.Device(), w)
	// The initial fence doubles as the collective barrier: its
	// completion proves every rank has registered its region (shm) and
	// started its handler (message path).
	if err := w.Fence(); err != nil {
		w.mu.Lock()
		w.freed = true
		w.mu.Unlock()
		_ = w.sendFrame(comm.Rank(), frStop, 0, 0, 0, 0, 0, nil)
		<-w.hdone
		w.teardown()
		return nil, fmt.Errorf("rma: window create: %w", err)
	}
	return w, nil
}

// Buffer returns the local exposed region. The caller may read and
// write it directly between synchronization calls, per the usual MPI
// rules: local access races with concurrent remote epochs unless
// ordered by Fence or a lock.
func (w *Win) Buffer() []byte { return w.local.buf }

// Size returns the number of ranks in the window's group.
func (w *Win) Size() int { return w.comm.Size() }

// Rank returns the calling rank within the window's group.
func (w *Win) Rank() int { return w.comm.Rank() }

// opCheck validates target rank and state before an operation.
func (w *Win) opCheck(target int) error {
	if target < 0 || target >= w.comm.Size() {
		return fmt.Errorf("rma: target rank %d out of range (size %d)", target, w.comm.Size())
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.freed {
		return ErrFreed
	}
	return w.failed
}

// directRegion returns the target's region when it is reachable by
// plain memory access (the local window, or any window on a
// shared-address-space device), and nil when the operation must take
// the active-message path.
func (w *Win) directRegion(target int) *region {
	if target == w.comm.Rank() {
		return w.local
	}
	if w.shm != nil {
		return w.shm.regions[target]
	}
	return nil
}

// bcastLocked wakes every waiter by retiring the current change
// generation. Callers hold w.mu.
func (w *Win) bcastLocked() {
	close(w.change)
	w.change = make(chan struct{})
}

// fail marks the window failed, releasing every registered reply
// waiter and waking every condition waiter. The first error wins.
func (w *Win) fail(err error) {
	w.mu.Lock()
	if w.failed == nil {
		w.failed = err
	}
	for id, wt := range w.waits {
		delete(w.waits, id)
		wt.err = w.failed
		close(wt.done)
	}
	w.bcastLocked()
	w.mu.Unlock()
}

// Poison marks the window failed with err: every pending reply wait is
// released and every blocked synchronization call (Fence, Lock,
// Unlock, throttled Put/Accumulate) returns err instead of hanging.
// Subsequent operations fail fast with the same error. The core layer
// calls this when the window's communicator is revoked; the first
// failure recorded on a window wins, so poisoning an already-failed
// window is a no-op.
func (w *Win) Poison(err error) { w.fail(err) }

// peersErr polls liveness: of the given ranks, or of every rank in the
// group when targets is nil. The device's death record is wrapped with
// the window role so the failure names the peer.
func (w *Win) peersErr(targets []int) error {
	if w.checker == nil {
		return nil
	}
	check := func(r int) error {
		if r == w.comm.Rank() {
			return nil
		}
		pid, ok := w.comm.PID(r)
		if !ok {
			return nil
		}
		if err := w.checker.PeerErr(pid); err != nil {
			return fmt.Errorf("rma: window peer %d: %w", r, err)
		}
		return nil
	}
	if targets == nil {
		for r := 0; r < w.comm.Size(); r++ {
			if err := check(r); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range targets {
		if err := check(r); err != nil {
			return err
		}
	}
	return nil
}

// waitCond blocks until pred (evaluated under w.mu) holds, the window
// fails, or a liveness poll of targets (nil = whole group) detects a
// dead peer.
func (w *Win) waitCond(pred func() bool, targets []int) error {
	for {
		w.mu.Lock()
		if w.failed != nil {
			err := w.failed
			w.mu.Unlock()
			return err
		}
		if pred() {
			w.mu.Unlock()
			return nil
		}
		ch := w.change
		w.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(pollEvery):
			if err := w.peersErr(targets); err != nil {
				w.fail(err)
				return err
			}
		}
	}
}

// addWait registers a reply slot, failing fast if the window already
// failed (after failure nobody would ever release the slot).
func (w *Win) addWait(wt *repWait) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.freed {
		return 0, ErrFreed
	}
	if w.failed != nil {
		return 0, w.failed
	}
	id := w.nextOp
	w.nextOp++
	w.waits[id] = wt
	return id, nil
}

// waitRep blocks until the slot is released or target dies.
func (w *Win) waitRep(wt *repWait, id uint64, target int) error {
	for {
		select {
		case <-wt.done:
			return wt.err
		case <-time.After(pollEvery):
			if err := w.peersErr([]int{target}); err != nil {
				w.mu.Lock()
				delete(w.waits, id)
				w.mu.Unlock()
				w.fail(err)
				return err
			}
		}
	}
}

// packFrame packs one active-message frame: the header words, then the
// payload, if any.
func packFrame(kind int64, opID uint64, off, n, a1, a2 int64, payload []byte) (*mpjbuf.Buffer, error) {
	buf := mpjbuf.New(frameWords*8 + len(payload) + 16)
	hdr := [frameWords]int64{kind, int64(opID), off, n, a1, a2}
	if err := buf.WriteLongs(hdr[:], 0, frameWords); err != nil {
		return nil, err
	}
	if len(payload) > 0 {
		if err := buf.WriteBytes(payload, 0, len(payload)); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// sendFrame packs and sends one active-message frame. The send is
// blocking (standard mode): frames are eager-sized, so it completes as
// soon as the transport has buffered the frame and never waits on the
// target's application.
func (w *Win) sendFrame(dst int, kind int64, opID uint64, off, n, a1, a2 int64, payload []byte) error {
	buf, err := packFrame(kind, opID, off, n, a1, a2, payload)
	if err != nil {
		return err
	}
	return w.comm.Send(buf, dst, rmaTag)
}

// sendErr wraps a transport failure: it fails the window (one-sided
// state is no longer coherent) and returns the error.
func (w *Win) sendErr(err error) error {
	werr := fmt.Errorf("rma: %w", err)
	w.fail(werr)
	return werr
}

// throttle waits until the outstanding-segment budget has room.
func (w *Win) throttle(target int) error {
	return w.waitCond(func() bool { return w.pendTot < maxOutstanding }, []int{target})
}

// account records one origin-side user operation.
func (w *Win) account(t mpe.EventType, c *atomic.Uint64, target, n int) {
	c.Add(1)
	w.ctr.RmaBytes.Add(uint64(n))
	w.epochBytes.Add(int64(n))
	if w.rec.Enabled() {
		w.rec.Event(t, int32(target), rmaTag, int32(w.comm.Context()), int64(n))
	}
}

// Put copies data into target's window at byte offset off. On return
// the data is in flight (or, on the direct path, already visible);
// completion at the target is established by the next Fence or by
// Unlock of a lock held around the Put.
func (w *Win) Put(data []byte, target, off int) error {
	if err := w.opCheck(target); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	if r := w.directRegion(target); r != nil {
		if off < 0 || off+len(data) > len(r.buf) {
			return fmt.Errorf("%w: put [%d,%d) into %d-byte window of rank %d",
				ErrOutOfRange, off, off+len(data), len(r.buf), target)
		}
		r.mu.Lock()
		copy(r.buf[off:], data)
		r.mu.Unlock()
		w.account(mpe.RmaPut, &w.ctr.RmaPuts, target, len(data))
		return nil
	}
	for sent := 0; sent < len(data); {
		n := min(w.seg, len(data)-sent)
		if err := w.throttle(target); err != nil {
			return err
		}
		w.mu.Lock()
		id := w.nextOp
		w.nextOp++
		w.pending[target]++
		w.pendTot++
		w.mu.Unlock()
		if err := w.sendFrame(target, frPut, id, int64(off+sent), int64(n), 0, 0, data[sent:sent+n]); err != nil {
			return w.sendErr(err)
		}
		sent += n
	}
	w.account(mpe.RmaPut, &w.ctr.RmaPuts, target, len(data))
	return nil
}

// Get copies len(dst) bytes from target's window at byte offset off
// into dst. Get is locally complete on return: dst holds the data.
func (w *Win) Get(dst []byte, target, off int) error {
	if err := w.opCheck(target); err != nil {
		return err
	}
	if len(dst) == 0 {
		return nil
	}
	if r := w.directRegion(target); r != nil {
		if off < 0 || off+len(dst) > len(r.buf) {
			return fmt.Errorf("%w: get [%d,%d) from %d-byte window of rank %d",
				ErrOutOfRange, off, off+len(dst), len(r.buf), target)
		}
		r.mu.Lock()
		copy(dst, r.buf[off:])
		r.mu.Unlock()
		w.account(mpe.RmaGet, &w.ctr.RmaGets, target, len(dst))
		return nil
	}
	type seg struct {
		wt *repWait
		id uint64
	}
	var segs []seg
	for got := 0; got < len(dst); {
		n := min(w.seg, len(dst)-got)
		wt := &repWait{dst: dst[got : got+n], done: make(chan struct{})}
		id, err := w.addWait(wt)
		if err != nil {
			return err
		}
		if err := w.sendFrame(target, frGet, id, int64(off+got), int64(n), 0, 0, nil); err != nil {
			w.mu.Lock()
			delete(w.waits, id)
			w.mu.Unlock()
			return w.sendErr(err)
		}
		segs = append(segs, seg{wt, id})
		got += n
	}
	var firstErr error
	for _, s := range segs {
		if err := w.waitRep(s.wt, s.id, target); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	w.account(mpe.RmaGet, &w.ctr.RmaGets, target, len(dst))
	return nil
}

// Accumulate combines data into target's window at byte offset off:
// window[i] = op(window[i], data[i]) element-wise. The combination is
// applied atomically at the target with respect to every other
// one-sided operation. Operations from one origin to one target are
// applied in issue order (so Replace-then-Sum behaves as written);
// operations from different origins are unordered within an epoch,
// which is safe exactly when op is commutative-associative.
func (w *Win) Accumulate(data []byte, target, off int, et ElemType, op AccOp) error {
	if err := w.opCheck(target); err != nil {
		return err
	}
	es := et.Size()
	if es == 0 {
		return fmt.Errorf("rma: unknown element type %v", et)
	}
	if len(data)%es != 0 {
		return fmt.Errorf("rma: accumulate length %d not a multiple of %v elements", len(data), et)
	}
	if len(data) == 0 {
		return nil
	}
	if r := w.directRegion(target); r != nil {
		if off < 0 || off+len(data) > len(r.buf) {
			return fmt.Errorf("%w: accumulate [%d,%d) into %d-byte window of rank %d",
				ErrOutOfRange, off, off+len(data), len(r.buf), target)
		}
		r.mu.Lock()
		err := accumulate(r.buf[off:off+len(data)], data, et, op)
		r.mu.Unlock()
		if err != nil {
			return err
		}
		w.account(mpe.RmaAcc, &w.ctr.RmaAccs, target, len(data))
		return nil
	}
	// Segment on element boundaries so each frame is independently
	// applicable.
	segBytes := w.seg - w.seg%es
	if segBytes <= 0 {
		segBytes = es
	}
	for sent := 0; sent < len(data); {
		n := min(segBytes, len(data)-sent)
		if err := w.throttle(target); err != nil {
			return err
		}
		w.mu.Lock()
		id := w.nextOp
		w.nextOp++
		w.pending[target]++
		w.pendTot++
		w.mu.Unlock()
		if err := w.sendFrame(target, frAcc, id, int64(off+sent), int64(n), int64(et), int64(op), data[sent:sent+n]); err != nil {
			return w.sendErr(err)
		}
		sent += n
	}
	w.account(mpe.RmaAcc, &w.ctr.RmaAccs, target, len(data))
	return nil
}

// Fence closes the current active-target epoch, collectively: it
// drains this origin's in-flight operations, then exchanges a fence
// frame with every other rank and waits for theirs. When Fence returns
// on every rank, all one-sided operations issued before the fence are
// complete and visible at their targets.
func (w *Win) Fence() error {
	traced := w.rec.Enabled()
	var start int64
	if traced {
		start = w.rec.Now()
	}
	// Local completion: every Put/Acc segment this rank issued has been
	// applied and acked.
	if err := w.waitCond(func() bool { return w.pendTot == 0 }, nil); err != nil {
		return err
	}
	w.mu.Lock()
	if w.freed {
		w.mu.Unlock()
		return ErrFreed
	}
	e := w.epoch
	w.mu.Unlock()
	size, self := w.comm.Size(), w.comm.Rank()
	for r := 0; r < size; r++ {
		if r == self {
			continue
		}
		if err := w.sendFrame(r, frFence, 0, 0, 0, 0, e, nil); err != nil {
			return w.sendErr(err)
		}
	}
	if err := w.waitCond(func() bool { return w.fences[e] >= size-1 }, nil); err != nil {
		return err
	}
	w.mu.Lock()
	delete(w.fences, e)
	w.epoch = e + 1
	w.mu.Unlock()
	if traced {
		w.rec.Span(mpe.RmaFence, -1, rmaTag, int32(w.comm.Context()), w.epochBytes.Swap(0), start)
	} else {
		w.epochBytes.Store(0)
	}
	return nil
}

// Epoch returns the number of completed fence epochs.
func (w *Win) Epoch() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// Lock opens a passive-target access epoch on target's window. shared
// admits concurrent shared holders (readers); exclusive serializes
// against every other lock. Lock blocks until the target grants it —
// grants are queued FIFO at the target, and a queued request blocks
// later grants, so writers are not starved by a stream of readers.
func (w *Win) Lock(target int, shared bool) error {
	if err := w.opCheck(target); err != nil {
		return err
	}
	mode := int64(0)
	if shared {
		mode = 1
	}
	wt := &repWait{done: make(chan struct{})}
	id, err := w.addWait(wt)
	if err != nil {
		return err
	}
	if err := w.sendFrame(target, frLock, id, 0, 0, mode, 0, nil); err != nil {
		w.mu.Lock()
		delete(w.waits, id)
		w.mu.Unlock()
		return w.sendErr(err)
	}
	return w.waitRep(wt, id, target)
}

// Unlock closes the passive-target epoch on target: it drains this
// origin's in-flight operations to the target, releases the lock, and
// waits for the target's acknowledgement. On return every operation
// issued inside the epoch is complete and visible at the target.
func (w *Win) Unlock(target int) error {
	if err := w.opCheck(target); err != nil {
		return err
	}
	if err := w.waitCond(func() bool { return w.pending[target] == 0 }, []int{target}); err != nil {
		return err
	}
	wt := &repWait{done: make(chan struct{})}
	id, err := w.addWait(wt)
	if err != nil {
		return err
	}
	if err := w.sendFrame(target, frUnlock, id, 0, 0, 0, 0, nil); err != nil {
		w.mu.Lock()
		delete(w.waits, id)
		w.mu.Unlock()
		return w.sendErr(err)
	}
	return w.waitRep(wt, id, target)
}

// Free releases the window, collectively: it fences (so no rank frees
// while another's operations are in flight), stops the handler, and
// withdraws the window from the shared-memory board and the registry.
// The fence error, if any, is returned after local teardown completes.
func (w *Win) Free() error {
	ferr := w.Fence()
	w.mu.Lock()
	if w.freed {
		w.mu.Unlock()
		return ferr
	}
	w.freed = true
	w.mu.Unlock()
	// A self-addressed stop frame retires the handler. If the device is
	// already closed the send fails — and the same closure has already
	// broken the handler's blocking receive, so it exits either way.
	_ = w.sendFrame(w.comm.Rank(), frStop, 0, 0, 0, 0, 0, nil)
	<-w.hdone
	w.teardown()
	return ferr
}

// teardown withdraws the window from the process-global structures.
func (w *Win) teardown() {
	regDel(w.comm.Device(), w)
	if w.shm != nil {
		shmLeave(w.shmKey, w.comm.Rank())
		w.shm = nil
	}
}

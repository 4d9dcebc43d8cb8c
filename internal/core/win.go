package core

import (
	"fmt"

	"mpj/internal/mpjbuf"
	"mpj/internal/mpjdev"
	"mpj/internal/rma"
)

// One-sided communication (MPI-2 RMA) at the API layer: WinCreate
// exposes a rank-local byte region as a window; Put/Get/Accumulate
// access any rank's region without that rank posting a receive;
// Fence and Lock/Unlock provide active- and passive-target
// synchronization. The mechanics — shared-memory direct delivery on
// smpdev, active-message frames elsewhere — live in internal/rma.

// Lock types for Win.Lock (MPI_LOCK_SHARED / MPI_LOCK_EXCLUSIVE).
const (
	LockShared    = 1
	LockExclusive = 2
)

// REPLACE is the MPI_REPLACE accumulate operation: the incoming value
// overwrites the target element. It is not commutative — same-origin
// ordering matters — and is only meaningful to Accumulate, though its
// apply works anywhere an Op does.
var REPLACE = &Op{name: "REPLACE", commute: false, atom: 1, apply: func(in, inout any) error {
	switch a := in.(type) {
	case []byte:
		copy(inout.([]byte), a)
	case []int16:
		copy(inout.([]int16), a)
	case []int32:
		copy(inout.([]int32), a)
	case []int64:
		copy(inout.([]int64), a)
	case []float32:
		copy(inout.([]float32), a)
	case []float64:
		copy(inout.([]float64), a)
	default:
		return fmt.Errorf("core: REPLACE unsupported for %T", in)
	}
	return nil
}}

// rmaElem maps a base datatype to the rma wire element code.
func rmaElem(dt *Datatype) (rma.ElemType, error) {
	if dt == nil {
		return 0, fmt.Errorf("core: Accumulate: nil datatype")
	}
	switch dt.base {
	case mpjbuf.ByteType:
		return rma.Byte, nil
	case mpjbuf.IntType:
		return rma.Int32, nil
	case mpjbuf.LongType:
		return rma.Int64, nil
	case mpjbuf.FloatType:
		return rma.Float32, nil
	case mpjbuf.DoubleType:
		return rma.Float64, nil
	}
	return 0, fmt.Errorf("core: Accumulate: datatype %s not supported for one-sided ops", dt)
}

// rmaOp maps a reduction op to the rma wire code. Only built-ins
// travel: a user-defined op's function cannot be shipped to the
// target.
func rmaOp(op *Op) (rma.AccOp, error) {
	switch op {
	case REPLACE:
		return rma.Replace, nil
	case SUM:
		return rma.Sum, nil
	case PROD:
		return rma.Prod, nil
	case MAX:
		return rma.Max, nil
	case MIN:
		return rma.Min, nil
	case BAND:
		return rma.Band, nil
	case BOR:
		return rma.Bor, nil
	case BXOR:
		return rma.Bxor, nil
	}
	if op == nil {
		return 0, fmt.Errorf("core: Accumulate: nil op")
	}
	return 0, fmt.Errorf("core: Accumulate: op %s not supported for one-sided ops", op)
}

// Win is a window: each rank of the communicator exposes a byte region
// that every rank accesses one-sidedly (the mpijava Win class, MPI-2
// §11). Offsets and lengths are in bytes; multi-byte elements are
// little-endian, matching Accumulate's wire format.
type Win struct {
	comm *Intracomm
	w    *rma.Win
	ctx  int // the window's private matching context
}

// WinCreate exposes buf as this rank's region of a new window
// (MPI_Win_create). Collective over the communicator; regions may
// differ in size across ranks. The window gets a private matching
// context, so its traffic cannot collide with point-to-point or
// collective messages, and it starts inside a fence epoch: the return
// is itself a barrier.
func (c *Intracomm) WinCreate(buf []byte) (*Win, error) {
	ptpCtx, _ := c.p.allocContexts()
	dc, err := mpjdev.NewComm(c.p.dev, c.group.pids, c.Rank(), ptpCtx)
	if err != nil {
		return nil, err
	}
	w, err := rma.New(dc, buf, rma.Config{
		Counters: c.p.counters,
		Recorder: c.p.rec,
	})
	if err != nil {
		return nil, err
	}
	win := &Win{comm: c, w: w, ctx: ptpCtx}
	c.p.winMu.Lock()
	if c.p.wins == nil {
		c.p.wins = make(map[int][]*Win)
	}
	key := c.ptp.Context()
	c.p.wins[key] = append(c.p.wins[key], win)
	c.p.winMu.Unlock()
	return win, nil
}

// Buffer returns the locally exposed region.
func (w *Win) Buffer() []byte { return w.w.Buffer() }

// Put copies data into target's region at byte offset off. It
// completes at the target by the closing Fence, or by Unlock when
// issued inside a lock epoch.
func (w *Win) Put(data []byte, target, off int) error { return w.w.Put(data, target, off) }

// Get copies len(dst) bytes from target's region at byte offset off;
// dst holds the data on return.
func (w *Win) Get(dst []byte, target, off int) error { return w.w.Get(dst, target, off) }

// Accumulate combines data into target's region element-wise:
// region[i] = op(region[i], data[i]), atomically per operation with
// respect to all other one-sided accesses (MPI_Accumulate). dt must be
// a base datatype (BYTE, INT, LONG, FLOAT, DOUBLE) and op a built-in
// (REPLACE, SUM, PROD, MAX, MIN, BAND, BOR, BXOR). Operations from the
// same origin apply in issue order; concurrent origins are unordered
// within an epoch.
func (w *Win) Accumulate(data []byte, target, off int, dt *Datatype, op *Op) error {
	et, err := rmaElem(dt)
	if err != nil {
		return err
	}
	ao, err := rmaOp(op)
	if err != nil {
		return err
	}
	return w.w.Accumulate(data, target, off, et, ao)
}

// Fence closes the current active-target epoch (MPI_Win_fence):
// collective; when it returns everywhere, every one-sided operation
// issued before it is visible at its target. A peer dying mid-epoch
// fails the fence with an error satisfying errors.Is(err,
// xdev.ErrPeerLost) rather than hanging.
func (w *Win) Fence() error { return w.w.Fence() }

// Lock opens a passive-target epoch on target's region
// (MPI_Win_lock): LockShared admits concurrent shared holders,
// LockExclusive serializes against all others. Requests queue FIFO at
// the target, so readers cannot starve a waiting writer.
func (w *Win) Lock(lockType, target int) error {
	switch lockType {
	case LockShared:
		return w.w.Lock(target, true)
	case LockExclusive:
		return w.w.Lock(target, false)
	}
	return fmt.Errorf("core: Lock: unknown lock type %d", lockType)
}

// Unlock closes the passive-target epoch on target (MPI_Win_unlock):
// it drains this origin's operations to the target and releases the
// lock; on return they are visible at the target.
func (w *Win) Unlock(target int) error { return w.w.Unlock(target) }

// Free releases the window (MPI_Win_free). Collective: it fences
// before teardown so no rank frees a region another rank is still
// writing.
func (w *Win) Free() error {
	p := w.comm.p
	key := w.comm.ptp.Context()
	p.winMu.Lock()
	ws := p.wins[key]
	for i, ww := range ws {
		if ww == w {
			p.wins[key] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	p.winMu.Unlock()
	return w.w.Free()
}

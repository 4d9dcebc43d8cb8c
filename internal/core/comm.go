package core

import (
	"fmt"
	"sync"

	"mpj/internal/devcore"
	"mpj/internal/mpjbuf"
	"mpj/internal/mpjdev"
)

// Message matching wildcards (mpijava values).
const (
	// AnySource matches a message from any rank.
	AnySource = mpjdev.AnySource
	// AnyTag matches a message with any tag.
	AnyTag = mpjdev.AnyTag
)

// Status describes a completed receive (the mpijava Status class).
type Status struct {
	// Source is the sender's rank in the communicator.
	Source int
	// Tag is the message tag.
	Tag   int
	elems int
}

// Count returns the number of base-type elements received.
func (s *Status) Count() int { return s.elems }

// GetCount returns the number of items of dt received
// (Status.Get_count).
func (s *Status) GetCount(dt *Datatype) int {
	if dt == nil || dt.Size() == 0 {
		return 0
	}
	return s.elems / dt.Size()
}

// Comm is the communicator base: a process group plus private matching
// contexts for point-to-point and collective traffic. Intracomm embeds
// it; all methods are safe for concurrent use (MPI_THREAD_MULTIPLE).
type Comm struct {
	p     *Process
	group *Group
	ptp   *mpjdev.Comm
	coll  *mpjdev.Comm
}

// Rank reports this process's rank in the communicator.
func (c *Comm) Rank() int { return c.ptp.Rank() }

// Size reports the number of processes in the communicator.
func (c *Comm) Size() int { return c.group.Size() }

// Group returns the communicator's process group.
func (c *Comm) Group() *Group { return c.group }

// Process returns the owning process handle.
func (c *Comm) Process() *Process { return c.p }

// Compare relates two communicators' groups (MPI_Comm_compare; Ident
// here means identical groups, not handle identity).
func (c *Comm) Compare(other *Comm) int { return c.group.Compare(other.group) }

// Abort terminates the job with the given error code (MPI_Abort): the
// abort is broadcast to the other ranks when the device supports it,
// and every local pending operation fails with an error satisfying
// errors.Is(err, xdev.ErrAborted).
func (c *Comm) Abort(code int) error { return c.ptp.Abort(code) }

// Request is an in-flight non-blocking operation at the API level. For
// receives it defers unpacking into the user buffer until completion
// is observed. It holds the rank-level request by value, so a
// nonblocking operation allocates only this and the device's request;
// the field stays unexported so no caller can complete it past finish.
type Request struct {
	inner mpjdev.Request

	// wire is the pooled message buffer of a typed Isend/Irecv; it goes
	// back to the pool when completion is first observed. For a receive
	// (recv set) it is unpacked into recvBuf before that.
	wire    *mpjbuf.Buffer
	recv    bool
	recvBuf any
	offset  int
	count   int
	dt      *Datatype

	// onComplete, if set, runs when completion is first observed (used
	// by buffered sends to release pool space).
	onComplete func()

	// once does the completion work above and writes st and err when
	// completion is first observed; every caller then returns &st.
	once sync.Once
	st   Status
	err  error
}

func (r *Request) finish(st mpjdev.Status) (*Status, error) {
	r.once.Do(func() {
		r.st = Status{Source: st.Source, Tag: st.Tag}
		if r.wire != nil {
			if r.recv {
				r.st.elems, r.err = unpack(r.wire, r.recvBuf, r.offset, r.count, r.dt)
			}
			devcore.PutBuffer(r.wire)
		}
		if r.onComplete != nil {
			r.onComplete()
		}
	})
	if r.err != nil {
		return nil, r.err
	}
	return &r.st, nil
}

// Wait blocks until the operation completes and returns its status.
func (r *Request) Wait() (*Status, error) {
	st, err := r.inner.Wait()
	if err != nil {
		return nil, err
	}
	return r.finish(st)
}

// Test reports completion without blocking; on completion the status
// is returned and receive data is in place.
func (r *Request) Test() (*Status, bool, error) {
	st, ok, err := r.inner.Test()
	if err != nil || !ok {
		return nil, ok, err
	}
	s, err := r.finish(st)
	return s, true, err
}

// ---- blocking point-to-point ----

// Send performs a blocking standard-mode send of count items of dt
// from buf starting at offset. The wire buffer is pooled, and a large
// contiguous buf is sent from in place rather than copied into it: the
// blocking call does not return until the device is done with both, so
// the buffer is recycled — and buf is the caller's again — immediately
// after.
func (c *Comm) Send(buf any, offset, count int, dt *Datatype, dst, tag int) error {
	b := devcore.GetBuffer()
	defer devcore.PutBuffer(b)
	if err := packInto(b, buf, offset, count, dt); err != nil {
		return err
	}
	return c.ptp.Send(b, dst, tag)
}

// Ssend performs a blocking synchronous-mode send: it returns only
// after the receiver has matched the message.
func (c *Comm) Ssend(buf any, offset, count int, dt *Datatype, dst, tag int) error {
	b := devcore.GetBuffer()
	defer devcore.PutBuffer(b)
	if err := packInto(b, buf, offset, count, dt); err != nil {
		return err
	}
	return c.ptp.Ssend(b, dst, tag)
}

// Rsend performs a blocking ready-mode send. The standard-mode
// implementation is a legal realization of ready mode.
func (c *Comm) Rsend(buf any, offset, count int, dt *Datatype, dst, tag int) error {
	return c.Send(buf, offset, count, dt, dst, tag)
}

// Bsend performs a buffered-mode send: the message is staged through
// the buffer attached with Process.BufferAttach and the call returns
// without waiting for the receiver.
func (c *Comm) Bsend(buf any, offset, count int, dt *Datatype, dst, tag int) error {
	_, err := c.Ibsend(buf, offset, count, dt, dst, tag)
	return err
}

// Recv blocks until a matching message arrives and unpacks up to count
// items of dt into buf at offset. A large contiguous message is
// received straight into buf; if the receive then fails, buf's contents
// are undefined, as MPI has it.
//
// Recv stays small enough to inline (TestNonblockingAllocs pins it), so
// the status lives in the caller's frame unless the caller keeps it.
func (c *Comm) Recv(buf any, offset, count int, dt *Datatype, src, tag int) (st *Status, err error) {
	st = new(Status)
	if err = c.recv(st, buf, offset, count, dt, src, tag); err != nil {
		st = nil
	}
	return
}

func (c *Comm) recv(out *Status, buf any, offset, count int, dt *Datatype, src, tag int) error {
	b := devcore.GetBuffer()
	defer devcore.PutBuffer(b)
	land(b, buf, offset, count, dt)
	st, err := c.ptp.Recv(b, src, tag)
	if err != nil {
		return err
	}
	out.Source, out.Tag = st.Source, st.Tag
	out.elems, err = unpack(b, buf, offset, count, dt)
	return err
}

// Sendrecv exchanges messages: a standard send to dst and a receive
// from src proceed concurrently, avoiding the pairwise-exchange
// deadlock (MPI_Sendrecv).
func (c *Comm) Sendrecv(
	sendBuf any, sendOffset, sendCount int, sendType *Datatype, dst, sendTag int,
	recvBuf any, recvOffset, recvCount int, recvType *Datatype, src, recvTag int,
) (*Status, error) {
	sreq, err := c.Isend(sendBuf, sendOffset, sendCount, sendType, dst, sendTag)
	if err != nil {
		return nil, err
	}
	st, err := c.Recv(recvBuf, recvOffset, recvCount, recvType, src, recvTag)
	if err != nil {
		return nil, err
	}
	if _, err := sreq.Wait(); err != nil {
		return nil, err
	}
	return st, nil
}

// ---- non-blocking point-to-point ----

// startSend packs into a pooled wire buffer and starts it with the
// given device-level send. The caller recycles the buffer once the
// request's Wait succeeds; the device may read it, and the region of
// buf it borrowed (see packInto), until then.
func startSend(start func(*mpjbuf.Buffer, int, int) (mpjdev.Request, error),
	buf any, offset, count int, dt *Datatype, dst, tag int) (mpjdev.Request, *mpjbuf.Buffer, error) {
	b := devcore.GetBuffer()
	err := packInto(b, buf, offset, count, dt)
	var r mpjdev.Request
	if err == nil {
		r, err = start(b, dst, tag)
	}
	if err != nil {
		devcore.PutBuffer(b)
		return mpjdev.Request{}, nil, err
	}
	return r, b, nil
}

// isend wraps a started send in a request that hands its buffer back
// on completion.
func isend(r mpjdev.Request, b *mpjbuf.Buffer, err error) (*Request, error) {
	if err != nil {
		return nil, err
	}
	return &Request{inner: r, wire: b}, nil
}

// Isend starts a standard-mode non-blocking send. buf must not be
// modified until Wait or Test reports completion.
func (c *Comm) Isend(buf any, offset, count int, dt *Datatype, dst, tag int) (*Request, error) {
	return isend(startSend(c.ptp.Isend, buf, offset, count, dt, dst, tag))
}

// Issend starts a synchronous-mode non-blocking send.
func (c *Comm) Issend(buf any, offset, count int, dt *Datatype, dst, tag int) (*Request, error) {
	return isend(startSend(c.ptp.Issend, buf, offset, count, dt, dst, tag))
}

// Irsend starts a ready-mode non-blocking send (standard realization).
func (c *Comm) Irsend(buf any, offset, count int, dt *Datatype, dst, tag int) (*Request, error) {
	return c.Isend(buf, offset, count, dt, dst, tag)
}

// Ibsend starts a buffered-mode non-blocking send. Packing copies the
// user data immediately, so the returned request reflects only
// buffer-pool accounting: space is reserved here and released when the
// message has left (MPI_Ibsend).
func (c *Comm) Ibsend(buf any, offset, count int, dt *Datatype, dst, tag int) (*Request, error) {
	b, err := pack(buf, offset, count, dt)
	if err != nil {
		return nil, err
	}
	n := b.WireLen()
	if err := c.p.reserveBsend(n); err != nil {
		return nil, err
	}
	r, err := c.ptp.Isend(b, dst, tag)
	if err != nil {
		c.p.releaseBsend(n)
		return nil, err
	}
	req := &Request{inner: r, onComplete: func() { c.p.releaseBsend(n) }}
	// Release pool space as soon as the transfer completes, even if
	// the caller never waits on the request. A failed transfer's status
	// is never returned: the caller's Wait or Test sees the error.
	go func() {
		st, _ := r.Wait()
		req.finish(st)
	}()
	return req, nil
}

// Irecv starts a non-blocking receive of up to count items of dt into
// buf at offset. buf belongs to the library until Wait/Test reports
// completion: the device may write a matched message into it at any
// point before then.
func (c *Comm) Irecv(buf any, offset, count int, dt *Datatype, src, tag int) (*Request, error) {
	b := devcore.GetBuffer()
	land(b, buf, offset, count, dt)
	r, err := c.ptp.Irecv(b, src, tag)
	if err != nil {
		devcore.PutBuffer(b)
		return nil, err
	}
	return &Request{inner: r, wire: b, recv: true, recvBuf: buf, offset: offset, count: count, dt: dt}, nil
}

// Probe blocks until a matching message is available and returns its
// envelope without receiving it.
func (c *Comm) Probe(src, tag int) (*Status, error) {
	st, err := c.ptp.Probe(src, tag)
	if err != nil {
		return nil, err
	}
	return &Status{Source: st.Source, Tag: st.Tag, elems: -1}, nil
}

// Iprobe reports whether a matching message is available.
func (c *Comm) Iprobe(src, tag int) (*Status, bool, error) {
	st, ok, err := c.ptp.Iprobe(src, tag)
	if err != nil || !ok {
		return nil, ok, err
	}
	return &Status{Source: st.Source, Tag: st.Tag, elems: -1}, true, nil
}

// ---- request-array operations ----

// WaitAll blocks until all non-nil requests complete (MPI_Waitall).
func WaitAll(reqs []*Request) ([]*Status, error) {
	sts := make([]*Status, len(reqs))
	for i, r := range reqs {
		if r == nil {
			continue
		}
		st, err := r.Wait()
		if err != nil {
			return sts, fmt.Errorf("core: Waitall request %d: %w", i, err)
		}
		sts[i] = st
	}
	return sts, nil
}

// devReq is r's rank-level request, nil for a nil r: how mpjdev's
// array operations reach core's requests without a copy of the array.
func devReq(r *Request) *mpjdev.Request {
	if r == nil {
		return nil
	}
	return &r.inner
}

// WaitAny blocks until one of the non-nil requests completes,
// returning its index and status. It uses the poll-free peek-based
// machinery of mpjdev (paper §IV-E.1), so blocked waiters cost no CPU;
// a request that has already completed costs one Test per request up
// to it.
func WaitAny(reqs []*Request) (int, *Status, error) {
	idx, st, err := mpjdev.WaitAnyOf(reqs, devReq)
	if err != nil {
		return idx, nil, err
	}
	s, err := reqs[idx].finish(st)
	return idx, s, err
}

// TestAny polls the requests once (MPI_Testany).
func TestAny(reqs []*Request) (int, *Status, bool, error) {
	idx, st, ok, err := mpjdev.TestAnyOf(reqs, devReq)
	if err != nil || !ok {
		return idx, nil, false, err
	}
	s, err := reqs[idx].finish(st)
	return idx, s, err == nil, err
}

// TestAll reports whether all non-nil requests have completed
// (MPI_Testall).
func TestAll(reqs []*Request) ([]*Status, bool, error) {
	// First verify completion without consuming partial state.
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, ok, err := r.inner.Test(); err != nil || !ok {
			return nil, false, err
		}
	}
	sts, err := WaitAll(reqs)
	return sts, err == nil, err
}

// Package mpjdev is the rank-level device layer of MPJ Express (paper
// Fig. 1). It translates communicator-relative ranks to xdev
// ProcessIDs, carries the communicator context for matching, and
// implements the request-completion machinery — most notably the
// multi-threaded, poll-free Waitany of §IV-E.1, built on the device's
// blocking peek().
package mpjdev

import (
	"errors"
	"fmt"

	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// Rank-level wildcards (mpijava 1.2 values).
const (
	// AnySource matches a message from any rank.
	AnySource = -2
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// ErrNoActiveRequests is returned by WaitAny when every request in the
// array is nil.
var ErrNoActiveRequests = errors.New("mpjdev: Waitany over no active requests")

// Status describes a completed operation in rank terms.
type Status struct {
	// Source is the sender's rank within the communicator (receives).
	Source int
	// Tag is the message tag.
	Tag int
	// Bytes is the wire length of the message payload.
	Bytes int
}

// Comm is a rank-addressed communication endpoint: an xdev device plus
// a rank→ProcessID table and a context id. The core layer builds one
// per (communicator, point-to-point/collective context).
type Comm struct {
	dev     xdev.Device
	pids    []xdev.ProcessID
	ranks   map[xdev.ProcessID]int
	rank    int
	context int
}

// NewComm assembles a Comm. pids lists the group members by rank; rank
// is the calling process's position; context scopes message matching.
func NewComm(dev xdev.Device, pids []xdev.ProcessID, rank, context int) (*Comm, error) {
	if rank < 0 || rank >= len(pids) {
		return nil, fmt.Errorf("mpjdev: rank %d out of range [0,%d)", rank, len(pids))
	}
	ranks := make(map[xdev.ProcessID]int, len(pids))
	for r, p := range pids {
		ranks[p] = r
	}
	return &Comm{dev: dev, pids: pids, ranks: ranks, rank: rank, context: context}, nil
}

// Dup returns a Comm over the same device and group with a different
// matching context.
func (c *Comm) Dup(context int) *Comm {
	return &Comm{dev: c.dev, pids: c.pids, ranks: c.ranks, rank: c.rank, context: context}
}

// Sub returns a Comm for a subgroup of this Comm's processes. ranks
// lists the member ranks (relative to this Comm) in new-rank order;
// newRank is the caller's position in it.
func (c *Comm) Sub(ranks []int, newRank, context int) (*Comm, error) {
	pids := make([]xdev.ProcessID, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= len(c.pids) {
			return nil, fmt.Errorf("mpjdev: subgroup rank %d out of range", r)
		}
		pids[i] = c.pids[r]
	}
	return NewComm(c.dev, pids, newRank, context)
}

// Size reports the number of ranks in the group.
func (c *Comm) Size() int { return len(c.pids) }

// Rank reports the calling process's rank.
func (c *Comm) Rank() int { return c.rank }

// Context reports the matching context id.
func (c *Comm) Context() int { return c.context }

// Device exposes the underlying xdev device.
func (c *Comm) Device() xdev.Device { return c.dev }

// PID returns the device-level ProcessID of the given rank, for layers
// (internal/rma) that probe peer liveness through xdev.PeerChecker.
func (c *Comm) PID(rank int) (xdev.ProcessID, bool) {
	if rank < 0 || rank >= len(c.pids) {
		return xdev.ProcessID{}, false
	}
	return c.pids[rank], true
}

// Abort tears the whole job down with the given code. When the device
// implements xdev.Aborter the abort is broadcast, so remote ranks'
// blocked operations fail with xdev.AbortError promptly; otherwise the
// local device is finished, which fails local pending operations and
// surfaces at remote ranks as peer loss on fabrics that detect it.
func (c *Comm) Abort(code int) error {
	if a, ok := c.dev.(xdev.Aborter); ok {
		return a.Abort(code)
	}
	return c.dev.Finish()
}

func (c *Comm) pidOf(rank int) (xdev.ProcessID, error) {
	if rank == AnySource {
		return xdev.AnySource, nil
	}
	if rank < 0 || rank >= len(c.pids) {
		return xdev.ProcessID{}, fmt.Errorf("mpjdev: rank %d out of range [0,%d)", rank, len(c.pids))
	}
	return c.pids[rank], nil
}

func (c *Comm) xtag(tag int) int {
	if tag == AnyTag {
		return xdev.AnyTag
	}
	return tag
}

func (c *Comm) status(st xdev.Status) Status {
	src, ok := c.ranks[st.Source]
	if !ok {
		src = -1
	}
	return Status{Source: src, Tag: st.Tag, Bytes: st.Bytes}
}

// Request is a rank-level in-flight operation.
type Request struct {
	comm  *Comm
	inner xdev.Request
}

// Isend starts a standard-mode non-blocking send to dst.
func (c *Comm) Isend(buf *mpjbuf.Buffer, dst, tag int) (*Request, error) {
	pid, err := c.pidOf(dst)
	if err != nil {
		return nil, err
	}
	r, err := c.dev.ISend(buf, pid, tag, c.context)
	if err != nil {
		return nil, err
	}
	return &Request{comm: c, inner: r}, nil
}

// Send is a blocking standard-mode send to dst.
func (c *Comm) Send(buf *mpjbuf.Buffer, dst, tag int) error {
	pid, err := c.pidOf(dst)
	if err != nil {
		return err
	}
	return c.dev.Send(buf, pid, tag, c.context)
}

// Issend starts a synchronous-mode non-blocking send to dst.
func (c *Comm) Issend(buf *mpjbuf.Buffer, dst, tag int) (*Request, error) {
	pid, err := c.pidOf(dst)
	if err != nil {
		return nil, err
	}
	r, err := c.dev.ISsend(buf, pid, tag, c.context)
	if err != nil {
		return nil, err
	}
	return &Request{comm: c, inner: r}, nil
}

// Ssend is a blocking synchronous-mode send to dst.
func (c *Comm) Ssend(buf *mpjbuf.Buffer, dst, tag int) error {
	pid, err := c.pidOf(dst)
	if err != nil {
		return err
	}
	return c.dev.Ssend(buf, pid, tag, c.context)
}

// Irecv starts a non-blocking receive from src (or AnySource).
func (c *Comm) Irecv(buf *mpjbuf.Buffer, src, tag int) (*Request, error) {
	pid, err := c.pidOf(src)
	if err != nil {
		return nil, err
	}
	r, err := c.dev.IRecv(buf, pid, c.xtag(tag), c.context)
	if err != nil {
		return nil, err
	}
	return &Request{comm: c, inner: r}, nil
}

// Recv blocks until a matching message is received from src.
func (c *Comm) Recv(buf *mpjbuf.Buffer, src, tag int) (Status, error) {
	pid, err := c.pidOf(src)
	if err != nil {
		return Status{}, err
	}
	st, err := c.dev.Recv(buf, pid, c.xtag(tag), c.context)
	if err != nil {
		return Status{}, err
	}
	return c.status(st), nil
}

// Probe blocks until a matching message is available.
func (c *Comm) Probe(src, tag int) (Status, error) {
	pid, err := c.pidOf(src)
	if err != nil {
		return Status{}, err
	}
	st, err := c.dev.Probe(pid, c.xtag(tag), c.context)
	if err != nil {
		return Status{}, err
	}
	return c.status(st), nil
}

// Iprobe reports whether a matching message is available.
func (c *Comm) Iprobe(src, tag int) (Status, bool, error) {
	pid, err := c.pidOf(src)
	if err != nil {
		return Status{}, false, err
	}
	st, ok, err := c.dev.IProbe(pid, c.xtag(tag), c.context)
	if err != nil || !ok {
		return Status{}, ok, err
	}
	return c.status(st), true, nil
}

// Wait blocks until the request completes.
func (r *Request) Wait() (Status, error) {
	st, err := r.inner.Wait()
	if err != nil {
		return Status{}, err
	}
	return r.comm.status(st), nil
}

// Test reports completion without blocking.
func (r *Request) Test() (Status, bool, error) {
	st, ok, err := r.inner.Test()
	if err != nil || !ok {
		return Status{}, ok, err
	}
	return r.comm.status(st), true, nil
}

// TestAny polls the array once; if some request has completed it
// returns its index and status.
func TestAny(reqs []*Request) (int, Status, bool, error) {
	for i, r := range reqs {
		if r == nil {
			continue
		}
		st, ok, err := r.Test()
		if err != nil {
			return i, Status{}, false, err
		}
		if ok {
			return i, st, true, nil
		}
	}
	return -1, Status{}, false, nil
}

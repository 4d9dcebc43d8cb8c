package core

// ULFM-style fault tolerance (the MPI Forum's User-Level Failure
// Mitigation proposal): Revoke poisons a communicator job-wide so no
// operation on it can hang on a dead rank, Agree reaches uniform
// agreement among the survivors even when participants die
// mid-protocol, and Shrink builds a working communicator over the
// survivors. Together they let an application that lost a rank fence
// off the damaged communicator, agree on who is left, and continue on
// a smaller one (typically restoring state from a checkpoint — see
// internal/ckpt).
//
// The agreement protocol runs on a private recovery context that is
// never revoked: communicator contexts are allocated upward from zero
// (Process.allocContexts), so the negative context space is free, and
// each communicator's recovery channel lives at -(ptpCtx+1). Messages
// there are handled by a per-communicator responder goroutine that
// stays alive after Agree returns, which is what makes the protocol
// safe against coordinator death: a rank that already holds the
// decided value keeps answering queries about it, so a later
// coordinator adopts the delivered decision instead of recomputing a
// divergent one.

import (
	"fmt"
	"sync"
	"time"

	"mpj/internal/devcore"
	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/mpjdev"
	"mpj/internal/xdev"
)

// Agreement message tags on the recovery context. All messages carry
// four int64 words: sequence number, coordinator epoch, value, flag.
const (
	agTagContribute = 1 // participant -> coordinator: my flag word
	agTagQuery      = 2 // new coordinator -> survivor: decided yet?
	agTagReply      = 3 // survivor -> coordinator: (decided, value)
	agTagDecide     = 4 // coordinator -> participant: the decision
)

// ftPollEvery is how often a blocked agreement step re-checks peer
// liveness while waiting for protocol progress.
const ftPollEvery = 25 * time.Millisecond

// agReply is one survivor's answer to a coordinator's query.
type agReply struct {
	decided bool
	value   int64
}

// ftState is a communicator's fault-tolerance machinery: the recovery
// endpoint, the responder goroutine's protocol memory, and the change
// broadcast blocked agreement steps wait on.
type ftState struct {
	comm    *mpjdev.Comm     // recovery-context endpoint (negative ctx, never revoked)
	checker xdev.PeerChecker // nil when the device cannot report liveness

	mu      sync.Mutex
	change  chan struct{} // closed+replaced on every state change
	nextSeq uint64
	contrib map[uint64]map[int]int64              // seq -> rank -> contributed flag
	decided map[uint64]*int64                     // seq -> agreed value
	replies map[uint64]map[uint64]map[int]agReply // seq -> epoch -> rank -> reply
	err     error                                 // responder terminal error (device closed)
	done    chan struct{}                         // closed when the responder exits
}

// ftInit lazily starts the communicator's recovery machinery. The
// responder runs until the device closes; contributions that arrive
// before a rank's first Agree park in the device's unexpected queue
// and are consumed when the responder starts.
func (c *Comm) ftInit() *ftState {
	p := c.p
	p.ftMu.Lock()
	defer p.ftMu.Unlock()
	if p.fts == nil {
		p.fts = make(map[int]*ftState)
	}
	f := p.fts[c.ptp.Context()]
	if f == nil {
		f = &ftState{
			comm:    c.ptp.Dup(-c.ptp.Context() - 1),
			change:  make(chan struct{}),
			contrib: make(map[uint64]map[int]int64),
			decided: make(map[uint64]*int64),
			replies: make(map[uint64]map[uint64]map[int]agReply),
			done:    make(chan struct{}),
		}
		if ck, ok := p.dev.(xdev.PeerChecker); ok {
			f.checker = ck
		}
		go f.serve()
		p.fts[c.ptp.Context()] = f
	}
	return f
}

// bcastLocked wakes every blocked agreement step by retiring the
// current change generation. Callers hold f.mu.
func (f *ftState) bcastLocked() {
	close(f.change)
	f.change = make(chan struct{})
}

// send transmits one protocol message, best effort: a send that fails
// because the destination died is dropped — the protocol's liveness
// polling covers the loss.
func (f *ftState) send(dst, tag int, seq, epoch uint64, value, flag int64) {
	buf := devcore.GetBuffer()
	defer devcore.PutBuffer(buf)
	w := [4]int64{int64(seq), int64(epoch), value, flag}
	if err := buf.WriteLongs(w[:], 0, 4); err != nil {
		return
	}
	_ = f.comm.Send(buf, dst, tag)
}

// peerDead reports whether the device has recorded rank's death.
func (f *ftState) peerDead(rank int) bool {
	if f.checker == nil {
		return false
	}
	pid, ok := f.comm.PID(rank)
	if !ok {
		return false
	}
	return f.checker.PeerErr(pid) != nil
}

// serve is the responder goroutine: it receives every protocol message
// addressed to this rank and updates the shared state. Crucially it
// answers agTagQuery for sequences whose Agree call has long returned,
// which is what lets a replacement coordinator recover a decision that
// the original coordinator only partially delivered before dying.
// It posts its next receive before acting on a message, so an Agree
// the message completes returns after that post: the receives a
// decision log records do not race the rank's Finish.
func (f *ftState) serve() {
	defer close(f.done)
	post := func() (mpjdev.Request, *mpjbuf.Buffer, error) {
		buf := devcore.GetBuffer()
		req, err := f.comm.Irecv(buf, mpjdev.AnySource, mpjdev.AnyTag)
		return req, buf, err
	}
	req, buf, err := post()
	for {
		var st mpjdev.Status
		if err == nil {
			st, err = req.Wait()
		}
		if err != nil {
			devcore.PutBuffer(buf)
			f.mu.Lock()
			if f.err == nil {
				f.err = err
			}
			f.bcastLocked()
			f.mu.Unlock()
			return
		}
		var w [4]int64
		_, rerr := buf.ReadLongs(w[:], 0, 4)
		devcore.PutBuffer(buf)
		req, buf, err = post()
		if rerr != nil {
			continue
		}
		seq, epoch, val := uint64(w[0]), uint64(w[1]), w[2]
		switch st.Tag {
		case agTagContribute:
			f.mu.Lock()
			m := f.contrib[seq]
			if m == nil {
				m = make(map[int]int64)
				f.contrib[seq] = m
			}
			m[st.Source] = val
			f.bcastLocked()
			f.mu.Unlock()
		case agTagQuery:
			f.mu.Lock()
			d := f.decided[seq]
			f.mu.Unlock()
			if d != nil {
				f.send(st.Source, agTagReply, seq, epoch, *d, 1)
			} else {
				f.send(st.Source, agTagReply, seq, epoch, 0, 0)
			}
		case agTagReply:
			f.mu.Lock()
			es := f.replies[seq]
			if es == nil {
				es = make(map[uint64]map[int]agReply)
				f.replies[seq] = es
			}
			rs := es[epoch]
			if rs == nil {
				rs = make(map[int]agReply)
				es[epoch] = rs
			}
			rs[st.Source] = agReply{decided: w[3] == 1, value: val}
			f.bcastLocked()
			f.mu.Unlock()
		case agTagDecide:
			f.mu.Lock()
			if f.decided[seq] == nil {
				v := val
				f.decided[seq] = &v
			}
			f.bcastLocked()
			f.mu.Unlock()
		}
	}
}

// wait blocks until pred (evaluated under f.mu) holds or the responder
// died. It re-evaluates on every state change and every ftPollEvery,
// so predicates that consult peer liveness make progress when a peer
// dies silently.
func (f *ftState) wait(pred func() bool) error {
	for {
		f.mu.Lock()
		if pred() {
			f.mu.Unlock()
			return nil
		}
		if f.err != nil {
			err := f.err
			f.mu.Unlock()
			return err
		}
		ch := f.change
		f.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(ftPollEvery):
		}
	}
}

// agree drives one agreement sequence to a decision. Coordinators
// rotate by epoch: the coordinator of epoch e is rank e mod size, and
// every rank advances its epoch only on observing the current
// coordinator's death, so survivors converge on the same leader.
func (f *ftState) agree(seq uint64, size, self int) (int64, error) {
	for epoch := uint64(0); ; epoch++ {
		coord := int(epoch % uint64(size))
		if coord == self {
			return f.lead(seq, epoch, size, self)
		}
		if f.peerDead(coord) {
			continue
		}
		f.mu.Lock()
		myFlag := f.contrib[seq][self]
		f.mu.Unlock()
		f.send(coord, agTagContribute, seq, epoch, myFlag, 0)
		var out int64
		found := false
		err := f.wait(func() bool {
			if d := f.decided[seq]; d != nil {
				out, found = *d, true
				return true
			}
			return f.peerDead(coord)
		})
		if err != nil {
			return 0, err
		}
		if found {
			return out, nil
		}
		// The coordinator died before delivering a decision here; the
		// next epoch's coordinator takes over.
	}
}

// lead runs the coordinator role for one epoch: recover any earlier
// decision, else gather the survivors' contributions, AND them, and
// broadcast the result.
func (f *ftState) lead(seq, epoch uint64, size, self int) (int64, error) {
	if epoch > 0 {
		// An earlier coordinator may have delivered a decision to some
		// survivors before dying. Uniformity requires adopting it: query
		// everyone still alive and wait until each has replied or died.
		queried := make(map[int]bool)
		for r := 0; r < size; r++ {
			if r == self || f.peerDead(r) {
				continue
			}
			f.send(r, agTagQuery, seq, epoch, 0, 0)
			queried[r] = true
		}
		err := f.wait(func() bool {
			rs := f.replies[seq][epoch]
			for r := range queried {
				if _, ok := rs[r]; !ok && !f.peerDead(r) {
					return false
				}
			}
			return true
		})
		if err != nil {
			return 0, err
		}
		f.mu.Lock()
		for _, rep := range f.replies[seq][epoch] {
			if rep.decided && f.decided[seq] == nil {
				v := rep.value
				f.decided[seq] = &v
			}
		}
		f.mu.Unlock()
	}
	// Gather: wait until every rank has contributed or died. A rank
	// that dies after contributing stays in the AND — including more
	// information is always safe; what matters is never excluding a
	// survivor.
	err := f.wait(func() bool {
		if f.decided[seq] != nil {
			return true
		}
		m := f.contrib[seq]
		for r := 0; r < size; r++ {
			if r == self {
				continue
			}
			if _, ok := m[r]; !ok && !f.peerDead(r) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	d := f.decided[seq]
	if d == nil {
		v := int64(-1) // all-ones: the identity of bitwise AND
		for _, fl := range f.contrib[seq] {
			v &= fl
		}
		d = &v
		f.decided[seq] = d
	}
	value := *d
	f.mu.Unlock()
	for r := 0; r < size; r++ {
		if r == self || f.peerDead(r) {
			continue
		}
		f.send(r, agTagDecide, seq, 0, value, 0)
	}
	return value, nil
}

// Revoke poisons the communicator job-wide (MPI_Comm_revoke): every
// pending and future point-to-point, collective and one-sided
// operation on it — at every rank, not just the caller — fails
// promptly with an error satisfying errors.Is(err, xdev.ErrRevoked)
// instead of blocking on a dead rank. Revocation is not collective:
// any single rank that detects a failure calls it, and the device
// floods it to the survivors. It is idempotent and permanent; Agree
// and Shrink still work on a revoked communicator because they run on
// its never-revoked recovery context.
func (c *Comm) Revoke() error {
	rv, ok := c.p.dev.(xdev.Revoker)
	if !ok {
		return fmt.Errorf("core: Revoke: device %T cannot revoke matching contexts", c.p.dev)
	}
	c.p.counters.CommRevokes.Add(1)
	if err := rv.Revoke(c.ptp.Context()); err != nil {
		return err
	}
	if err := rv.Revoke(c.coll.Context()); err != nil {
		return err
	}
	// Windows created on this communicator have private contexts of
	// their own: revoke them so every rank's handler and epoch waiters
	// fail, and poison the local side immediately so a caller blocked
	// in Fence/Lock/Unlock does not wait for the device round-trip.
	c.p.winMu.Lock()
	wins := append([]*Win(nil), c.p.wins[c.ptp.Context()]...)
	c.p.winMu.Unlock()
	for _, w := range wins {
		_ = rv.Revoke(w.ctx)
		w.w.Poison(fmt.Errorf("core: communicator revoked: %w", xdev.ErrRevoked))
	}
	return nil
}

// Agree performs fault-tolerant agreement (MPI_Comm_agree): it returns
// the bitwise AND of every contributed flag word, computed uniformly —
// all ranks that return successfully observe the same value, even when
// participants (including the coordinating rank) die mid-protocol.
// Collective over the communicator's surviving members; a rank that
// died before contributing is excluded from the AND. Agreement works
// on a revoked communicator. Calls must be made in the same order on
// every rank, like all collectives.
func (c *Comm) Agree(flag int64) (int64, error) {
	f := c.ftInit()
	f.mu.Lock()
	seq := f.nextSeq
	f.nextSeq++
	m := f.contrib[seq]
	if m == nil {
		m = make(map[int]int64)
		f.contrib[seq] = m
	}
	m[c.Rank()] = flag
	f.mu.Unlock()
	v, err := f.agree(seq, c.Size(), c.Rank())
	if err != nil {
		return 0, err
	}
	c.p.counters.CommAgrees.Add(1)
	// Record/verify the agreed value: agreement outcomes depend on which
	// ranks were alive to contribute, a nondeterminism devcore never
	// sees. A replayed run that agrees on a different word has diverged.
	if s := c.p.replay; s != nil {
		if s.Recording() {
			c.p.counters.DecisionsRecorded.Add(1)
		}
		if s.Replaying() {
			c.p.counters.DecisionsEnforced.Add(1)
		}
		if rerr := s.Agree(int64(c.ptp.Context()), v); rerr != nil {
			return 0, rerr
		}
	}
	return v, nil
}

// Shrink returns a new communicator over the survivors
// (MPI_Comm_shrink): the ranks every participant agrees are alive,
// ordered by their old ranks. Collective over the survivors; it works
// on a revoked communicator. The caller's rank in the result is its
// position among the survivors. Because context allocation is aligned
// by collective-call order, the shrunken communicator's contexts agree
// across survivors without extra communication.
//
// A rank that died undetected may survive the agreement and appear in
// the new group; operations on the new communicator then fail and the
// application revokes and shrinks again — the ULFM model.
func (c *Intracomm) Shrink() (*Intracomm, error) {
	n := c.Size()
	if n > 64 {
		return nil, fmt.Errorf("core: Shrink: groups larger than 64 ranks not supported (have %d)", n)
	}
	traced := c.p.rec.Enabled()
	var start int64
	if traced {
		start = c.p.rec.Now()
	}
	f := c.ftInit()
	alive := int64(0)
	for r := 0; r < n; r++ {
		if r == c.Rank() || !f.peerDead(r) {
			alive |= int64(1) << uint(r)
		}
	}
	// AND of alive-masks = complement of the union of everyone's
	// suspects: a rank is kept only if nobody saw it die.
	mask, err := c.Agree(alive)
	if err != nil {
		return nil, err
	}
	var ranks []int
	newRank := Undefined
	for r := 0; r < n; r++ {
		if mask&(int64(1)<<uint(r)) == 0 {
			continue
		}
		if r == c.Rank() {
			newRank = len(ranks)
		}
		ranks = append(ranks, r)
	}
	if newRank == Undefined {
		return nil, fmt.Errorf("core: Shrink: the group agreed this rank failed")
	}
	g, err := c.group.Incl(ranks)
	if err != nil {
		return nil, err
	}
	nc, err := c.p.newIntracomm(g, newRank)
	if err != nil {
		return nil, err
	}
	c.p.counters.CommShrinks.Add(1)
	if traced {
		c.p.rec.Span(mpe.Recovered, -1, 0, int32(c.ptp.Context()), int64(n-len(ranks)), start)
	}
	return nc, nil
}

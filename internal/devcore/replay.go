// Record/replay integration: the core-side half of internal/replay.
// Recording taps the two nondeterministic decision points the core
// owns — wildcard match resolution and completion-pop order — and
// replay enforces them: wildcard receives are narrowed to the recorded
// (src,tag) and verified against the recorded seq at match, and Peek
// reorders completions to the recorded pop sequence, parking early
// completions until their turn.
package devcore

import (
	"fmt"
	"time"

	"mpj/internal/match"
	"mpj/internal/replay"
)

// SetReplay installs the rank's record/replay session. Strictly
// Init-time, before traffic.
func (c *Core) SetReplay(s *replay.Session) { c.session.Store(s) }

// Replay returns the installed session, nil when record/replay is off.
func (c *Core) Replay() *replay.Session { return c.session.Load() }

// ReplayActive reports whether a record/replay session is installed —
// devices consult it to decide whether to draw deterministic seqs and
// stamp replay identities on sends.
func (c *Core) ReplayActive() bool { return c.session.Load() != nil }

// NextSeqSend draws the sequence stamp for a send to dst under
// envelope (ctx,tag). With a session active the stamp is deterministic
// per (dev,dst,ctx,tag) stream — reproducible across record and replay
// runs — and otherwise it is the ordinary global counter. Both are
// unique per (src,dst) pair, which the pending-set protocol keys
// (rendezvous RTS/RTR, sync-ACK) rely on.
func (c *Core) NextSeqSend(dst uint64, ctx, tag int32) uint64 {
	if s := c.session.Load(); s != nil {
		return s.NextSeq(c.dev, dst, ctx, tag)
	}
	return c.seq.Add(1)
}

// replayPostLocked runs the receive-post decision point: stamps the
// request's replay identity and, for wildcard patterns, opens (record)
// or consumes (replay) the pattern stream's next decision. Under
// enforcement the returned pattern is narrowed to the recorded
// (src,tag) so the receive holds until the recorded message arrives.
// Caller holds c.mu.
func (c *Core) replayPostLocked(s *replay.Session, p match.Pattern, req *Request) (match.Pattern, error) {
	src := int64(-1)
	if p.Src != match.AnySource {
		src = int64(p.Src)
	}
	req.rPeer, req.rTag, req.rCtx = src, p.Tag, p.Ctx
	if p.Tag != match.AnyTag && p.Src != match.AnySource {
		return p, nil
	}
	if err := s.Diverged(); err != nil {
		return p, err
	}
	w := s.OpenWildcard(c.dev, p.Ctx, p.Tag, src)
	req.wdec = w
	if s.Recording() {
		c.Counters.DecisionsRecorded.Add(1)
	}
	if w.Enforce {
		c.Counters.DecisionsEnforced.Add(1)
		req.rPeer, req.rTag = w.Src, w.Tag
		p = match.Pattern{Ctx: p.Ctx, Tag: w.Tag, Src: uint64(w.Src)}
		// Hold-release path: the narrowed (concrete) probe bypasses the
		// wildcard-class gates, so recount the lazily-indexed sets
		// before probing rather than trusting live counts maintained
		// under a different class mix (stale-count fix, ISSUE 10).
		c.posted.Recount()
		c.arrived.Recount()
	}
	return p, nil
}

// replayMatched runs at every successful match: re-stamps the replay
// identity with the resolved envelope and resolves (record) or
// verifies (replay) the request's open decisions. Divergences are
// sticky on the session; the operation gates surface them.
func (c *Core) replayMatched(r *Request, src uint64, tag, ctx int32, seq uint64) {
	if r == nil || c.session.Load() == nil {
		return
	}
	r.rPeer, r.rTag, r.rCtx, r.rSeq = int64(src), tag, ctx, seq
	if w := r.wdec; w != nil {
		w.Resolve(int64(src), tag, seq)
	}
}

// peekErr maps a drained completion queue to the abort cause or the
// device's closed shape.
func (c *Core) peekErr() error {
	c.mu.Lock()
	aborted := c.aborted
	c.mu.Unlock()
	if aborted != nil {
		return aborted
	}
	return c.closedErr("peek")
}

// popObserved logs one performed pop on the session and counts it.
func (c *Core) popObserved(s *replay.Session, k replay.PopKey) {
	s.PopObserved(k)
	if s.Recording() {
		c.Counters.DecisionsRecorded.Add(1)
	}
}

// peekSession is Peek with a record/replay session installed. The
// session's pop lock serializes peekers, so the recorded pop stream is
// totally ordered.
//
// Recording: pops pass through, logged in the order performed.
// Replaying: the next recorded pop identity is awaited; completions
// that pop early are held (a replay stall) until their recorded turn,
// and a completion that never arrives within the pop timeout is the
// divergence "expected <recorded pop>, observed nothing".
func (c *Core) peekSession(s *replay.Session) (*Request, error) {
	unlock := s.LockPops()
	defer unlock()
	if !s.Replaying() || s.Diverged() != nil {
		// Record-only — or limping after a divergence so teardown can
		// drain: held completions first, then plain pops, all logged.
		if _, v, ok := s.TakeAnyHeld(); ok {
			r := v.(*Request)
			c.popObserved(s, r.popKey())
			return r, nil
		}
		r, err := c.cq.Peek()
		if err != nil {
			return nil, c.peekErr()
		}
		r.await()
		c.popObserved(s, r.popKey())
		return r, nil
	}
	deadline := time.Now().Add(s.PopTimeout())
	for {
		k, enforcing := s.NextPop()
		if !enforcing {
			// Recorded pop stream exhausted: tail pops pass through.
			if _, v, ok := s.TakeAnyHeld(); ok {
				r := v.(*Request)
				c.popObserved(s, r.popKey())
				return r, nil
			}
			r, err := c.cq.Peek()
			if err != nil {
				return nil, c.peekErr()
			}
			r.await()
			c.popObserved(s, r.popKey())
			return r, nil
		}
		if v, ok := s.TakeHeld(k); ok {
			r := v.(*Request)
			c.popObserved(s, k)
			c.Counters.DecisionsEnforced.Add(1)
			return r, nil
		}
		r, ok, closed := c.cq.TryPeek()
		if ok {
			r.await()
			rk := r.popKey()
			if rk == k {
				c.popObserved(s, k)
				c.Counters.DecisionsEnforced.Add(1)
				return r, nil
			}
			// Completed before its recorded turn: park it and keep
			// waiting for the recorded completion.
			s.Hold(rk, r)
			c.Counters.ReplayStalls.Add(1)
			deadline = time.Now().Add(s.PopTimeout())
			continue
		}
		if closed {
			// Shutdown drained the queue mid-stream: deliver held
			// completions, then report closed.
			if _, v, okh := s.TakeAnyHeld(); okh {
				r := v.(*Request)
				c.popObserved(s, r.popKey())
				return r, nil
			}
			return nil, c.peekErr()
		}
		if time.Now().After(deadline) {
			err := s.Diverge("pop", k.String(),
				fmt.Sprintf("no matching completion within %s", s.PopTimeout()))
			c.SetAborted(err)
			c.Broadcast()
			return nil, err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

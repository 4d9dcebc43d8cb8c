package layers

import (
	"fmt"
	"runtime"
	"time"

	"mpj/bench/stats"
	"mpj/internal/cqueue"
	"mpj/internal/devcore"
	"mpj/internal/match"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// Direct micro-timings of the packages that have a callable surface of
// their own: single goroutine, no transport, each figure the median of
// microRounds loops of n calls.

const microRounds = 5

// perCall times n calls of fn, microRounds times, and returns the
// median time per call in ns.
func perCall(n int, fn func()) float64 {
	per := make([]float64, microRounds)
	for r := range per {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t)) / float64(n)
	}
	return stats.Median(per)
}

// allocsPer returns heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// microErr carries the first failure out of a timed closure.
type microErr struct{ err error }

func (m *microErr) check(err error) {
	if err != nil && m.err == nil {
		m.err = err
	}
}

func micro(out map[string]float64) error {
	var me microErr
	microMpjbuf(out, &me)
	microDevcore(out, &me)
	microMatch(out, &me)
	microCqueue(out, &me)
	return me.err
}

// microMpjbuf times the buffering API the pack path is built on.
func microMpjbuf(out map[string]float64, me *microErr) {
	const n = 1 << 17
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	b := mpjbuf.New(0)
	write := func() {
		b.Clear()
		me.check(b.WriteDoubles(src, 0, n))
		b.Commit()
	}
	out["mpjbuf.write_doubles_1MiB_us"] = perCall(40, write) / 1e3
	write()
	out["mpjbuf.read_doubles_1MiB_us"] = perCall(40, func() {
		b.Commit() // rewinds the read cursor
		_, err := b.ReadDoubles(dst, 0, n)
		me.check(err)
	}) / 1e3
	if dst[n-1] != src[n-1] {
		me.check(fmt.Errorf("mpjbuf: read back %v, wrote %v", dst[n-1], src[n-1]))
	}

	small, back := []byte{1, 2, 3, 4, 5, 6, 7, 8}, make([]byte, 8)
	sb := mpjbuf.New(0)
	out["mpjbuf.write_read_8B_ns"] = perCall(200000, func() {
		sb.Clear()
		me.check(sb.WriteBytes(small, 0, 8))
		sb.Commit()
		_, err := sb.ReadBytes(back, 0, 8)
		me.check(err)
	})
	// One pack as the blocking Send path does it: pooled buffer, write,
	// wire segments, back to the pool.
	out["mpjbuf.allocs_per_pack"] = allocsPer(20000, func() {
		pb := devcore.GetBuffer()
		me.check(pb.WriteBytes(small, 0, 8))
		_ = pb.Segments()
		devcore.PutBuffer(pb)
	})
}

// microDevcore drives one core through the two orders a message and
// its receive can meet in, with no device around it.
func microDevcore(out map[string]float64, me *microErr) {
	c := devcore.New("mpjbench")
	pat := match.Pattern{Ctx: 1, Tag: 2, Src: 3}
	env := match.Concrete{Ctx: 1, Tag: 2, Src: 3}
	buf := mpjbuf.New(0)
	st := xdev.Status{Tag: 2, Bytes: 8}

	// Receive first: post, the arrival matches it, complete, wait.
	out["devcore.post_match_complete_ns"] = perCall(200000, func() {
		req := c.NewRequest(devcore.RecvReq, buf)
		_, err := c.PostRecv(pat, req, nil)
		me.check(err)
		got, ok := c.MatchPosted(env, 0)
		if !ok || got != req {
			me.check(fmt.Errorf("devcore: posted receive not matched"))
			return
		}
		got.Complete(st, nil)
		_, err = req.Wait()
		me.check(err)
	})
	// Message first: it parks as unexpected, the receive consumes it.
	out["devcore.unexpected_park_match_ns"] = perCall(200000, func() {
		arr := &devcore.Arrival{Src: 3, WireLen: 8}
		_, matched, err := c.MatchOrPark(env, arr)
		me.check(err)
		req := c.NewRequest(devcore.RecvReq, buf)
		got, err := c.PostRecv(pat, req, nil)
		me.check(err)
		if matched || got != arr {
			me.check(fmt.Errorf("devcore: parked arrival not consumed"))
			return
		}
		req.Complete(st, nil)
		_, err = req.Wait()
		me.check(err)
	})
	out["devcore.pool_get_put_ns"] = perCall(500000, func() {
		b := devcore.GetBuffer()
		s := devcore.GetSlice(512)
		devcore.PutSlice(s)
		devcore.PutBuffer(b)
	})
}

// microMatch times the matching sets alone: a fully specified receive,
// a four-key wildcard, and a match against 650 pending receives (the
// paper's §VI many-pending-receives case).
func microMatch(out map[string]float64, me *microErr) {
	miss := func(what string) { me.check(fmt.Errorf("match: %s did not match", what)) }

	ps := match.NewPatternSet[int]()
	out["match.specific_add_match_ns"] = perCall(500000, func() {
		ps.Add(match.Pattern{Ctx: 1, Tag: 2, Src: 3}, 7)
		if _, ok := ps.Match(match.Concrete{Ctx: 1, Tag: 2, Src: 3}); !ok {
			miss("specific pattern")
		}
	})

	// Wildcards both ways round: an ANY/ANY receive met by an arrival,
	// and an arrival met by an ANY/ANY probe of the unexpected set.
	ws := match.NewPatternSet[int]()
	is := match.NewItemSet[int]()
	out["match.wildcard_add_match_ns"] = perCall(500000, func() {
		ws.Add(match.Pattern{Ctx: 1, Tag: match.AnyTag, Src: match.AnySource}, 7)
		if _, ok := ws.Match(match.Concrete{Ctx: 1, Tag: 2, Src: 3}); !ok {
			miss("wildcard pattern")
		}
		is.Add(match.Concrete{Ctx: 1, Tag: 2, Src: 3}, 7)
		if _, ok := is.Match(match.Pattern{Ctx: 1, Tag: match.AnyTag, Src: match.AnySource}); !ok {
			miss("wildcard item")
		}
	}) / 2

	deep := match.NewPatternSet[int]()
	for i := 0; i < 650; i++ {
		deep.Add(match.Pattern{Ctx: 1, Tag: int32(i), Src: 3}, i)
	}
	i := 0
	out["match.depth650_match_ns"] = perCall(500000, func() {
		tag := int32(i % 650)
		i++
		if _, ok := deep.Match(match.Concrete{Ctx: 1, Tag: tag, Src: 3}); !ok {
			miss("pattern at depth 650")
		}
		deep.Add(match.Pattern{Ctx: 1, Tag: tag, Src: 3}, 0)
	})
}

type cqEntry struct{ queued bool }

func (e *cqEntry) CQSlot() *bool { return &e.queued }

// microCqueue times the completion queue as Waitany uses it (push then
// Peek) and as Wait uses it (push then Collect).
func microCqueue(out map[string]float64, me *microErr) {
	q := cqueue.New[*cqEntry]()
	a, b := &cqEntry{}, &cqEntry{}
	out["cqueue.push_peek_collect_ns"] = perCall(500000, func() {
		q.Push(a)
		q.Push(b)
		got, err := q.Peek()
		me.check(err)
		if got != a {
			me.check(fmt.Errorf("cqueue: Peek returned the wrong entry"))
		}
		q.Collect(b)
	})
}

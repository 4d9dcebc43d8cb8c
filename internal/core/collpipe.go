package core

import (
	"mpj/internal/devcore"
	"mpj/internal/mpjbuf"
	"mpj/internal/mpjdev"
)

// Segmented, pipelined collectives. Large payloads move as a stream of
// segments (collCfg.segBytes each) through bounded windows of
// nonblocking operations, so receiving segment k+1 overlaps folding or
// forwarding segment k. Each segment travels under its own tag
// (tagSegBase+index): a windowed receiver then stays correctly paired
// with its sender even on devices whose workers reorder the matching
// of same-signature operations (ibisdev). The tag space is reused by
// consecutive collectives, which is safe because every stream drains
// before its collective returns — a rank cannot have segments of two
// collectives outstanding at once.

// segTag returns the stream tag for segment index i.
func segTag(i int) int { return tagSegBase + i }

// segPlan slices a contiguous payload of elems base elements into
// segments of segElems (the last may be short).
type segPlan struct {
	elems    int
	segElems int
	segs     int
}

// planSegments fits collCfg.segBytes to the element size, aligning
// segment boundaries to the op's atom so per-segment reductions stay
// valid. atom <= 0 means the payload must not be split (user ops with
// unknown structure): the whole message becomes one segment, so the
// stream degenerates to a single windowed transfer.
func planSegments(elems, elemBytes, atom int) segPlan {
	if atom <= 0 {
		return segPlan{elems: elems, segElems: elems, segs: 1}
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	se := collCfg.segBytes / elemBytes
	if se < 1 {
		se = 1
	}
	se -= se % atom
	if se < atom {
		se = atom
	}
	if se > elems && elems > 0 {
		se = elems // one segment holds the payload; size no slot past it
	}
	segs := (elems + se - 1) / se
	if segs < 1 {
		segs = 1
	}
	return segPlan{elems: elems, segElems: se, segs: segs}
}

// bounds returns segment i's element offset and length.
func (p segPlan) bounds(i int) (off, n int) {
	off = i * p.segElems
	n = p.segElems
	if off+n > p.elems {
		n = p.elems - off
	}
	if n < 0 {
		n = 0
	}
	return off, n
}

// putSendBuf recycles a pooled wire buffer once its send completed.
func putSendBuf(b *mpjbuf.Buffer) { devcore.PutBuffer(b) }

// tempLike returns a contiguous temp slice with buf's element type,
// from mpjbuf's byte store unless it is []bool or []any. Pooled temps
// are not zeroed: every temp is fully written by a receive or a copy
// before it is read. put must be called exactly once, after last use.
func tempLike(buf any, n int) (any, func(), error) {
	switch buf.(type) {
	case []byte:
		return pooledTemp[byte](n)
	case []uint16:
		return pooledTemp[uint16](n)
	case []int16:
		return pooledTemp[int16](n)
	case []int32:
		return pooledTemp[int32](n)
	case []int64:
		return pooledTemp[int64](n)
	case []float32:
		return pooledTemp[float32](n)
	case []float64:
		return pooledTemp[float64](n)
	}
	t, err := allocLike(buf, n)
	return t, func() {}, err
}

func pooledTemp[T mpjbuf.Elem](n int) (any, func(), error) {
	t := mpjbuf.GetElems[T](n)
	return t, func() { mpjbuf.PutElems(t) }, nil
}

// recycle releases the temps of a stream that ended without error;
// after an error a posted receive may still land in them.
func recycle(puts *[]func(), err *error) {
	if *err == nil {
		for _, put := range *puts {
			put()
		}
	}
}

// contiguousView returns count items of dt at offset as a contiguous
// base-element view. When dt is contiguous the view aliases buf
// directly (zero copy); otherwise the data is gathered into scratch
// and, when needBack is set (receive-side buffers), the returned
// writeback scatters it back through dt's layout.
func contiguousView(buf any, offset, count int, dt *Datatype, needBack bool) (view any, writeback func() error, err error) {
	if dt.IsContiguous() {
		n, err := bufferElems(buf)
		if err != nil {
			return nil, nil, err
		}
		if err := span(dt, offset, count, n, "view"); err != nil {
			return nil, nil, err
		}
		v, err := sliceRegion(buf, offset, count*dt.extent)
		if err != nil {
			return nil, nil, err
		}
		return v, nil, nil
	}
	scratch, err := toScratch(buf, offset, count, dt)
	if err != nil {
		return nil, nil, err
	}
	if !needBack {
		return scratch, nil, nil
	}
	return scratch, func() error { return fromScratch(scratch, buf, offset, count, dt) }, nil
}

// sendStream pushes segments of a contiguous payload to one
// destination through a bounded window of Isends. Wire buffers are
// pooled and recycled as the window drains; segments are sent from the
// payload in place (see packInto), so it must stay unmodified until
// drain returns.
type sendStream struct {
	c    *Comm
	dst  int
	win  *mpjdev.Window
	bufs []*mpjbuf.Buffer
}

func (c *Comm) newSendStream(dst int) *sendStream {
	return &sendStream{c: c, dst: dst, win: mpjdev.NewWindow(collCfg.window)}
}

// send packs view[off:off+n] and posts it under tag, waiting on the
// oldest in-flight segment first when the window is full.
func (s *sendStream) send(view any, off, n int, bdt *Datatype, tag int) error {
	if s.win.Full() {
		if _, err := s.win.WaitOldest(); err != nil {
			return err
		}
		putSendBuf(s.bufs[0])
		s.bufs = s.bufs[1:]
	}
	b := devcore.GetBuffer()
	if err := packInto(b, view, off, n, bdt); err != nil {
		putSendBuf(b)
		return err
	}
	req, err := s.c.coll.Isend(b, s.dst, tag)
	if err != nil {
		putSendBuf(b)
		return err
	}
	if err := s.win.Add(req); err != nil {
		return err
	}
	s.bufs = append(s.bufs, b)
	s.c.p.counters.CollSegsSent.Add(1)
	return nil
}

// drain waits for every in-flight segment and recycles its buffer.
func (s *sendStream) drain() error {
	err := s.win.Drain()
	for _, b := range s.bufs {
		putSendBuf(b)
	}
	s.bufs = nil
	return err
}

// pendSeg is one outstanding segment receive and its unpack target.
type pendSeg struct {
	buf    *mpjbuf.Buffer
	dst    any
	off, n int
}

// landingCap bounds a landing stream's posted receives. 64 covers all
// 32 segments of a 1 MiB payload at the default segment size, so such a
// Bcast posts its whole stream on entry and no segment arrives
// unexpected. Each posted receive holds a request and a posted-set
// entry until its segment lands; the cap keeps that per-collective
// state independent of the payload size when a payload is cut into
// many small segments.
const landingCap = 64

// recvStream posts segment receives from one source and delivers them
// in order, unpacking each into its recorded target region. A
// ring-backed stream reuses collCfg.window slots: the caller posts that
// many ahead, then alternates deliver/post. A landing stream (segments
// land at their final place in view) posts up to its limit at once,
// then one more per delivery.
type recvStream struct {
	c    *Comm
	src  int
	bdt  *Datatype
	win  *mpjdev.Window
	pend []pendSeg
	view any     // landing streams only
	plan segPlan // of view
	next int     // next segment of plan to post
}

func (c *Comm) newRecvStream(src int, bdt *Datatype) *recvStream {
	return &recvStream{c: c, src: src, bdt: bdt, win: mpjdev.NewWindow(collCfg.window)}
}

// newLandingStream starts a landing stream of plan's segments into view.
func (c *Comm) newLandingStream(src int, bdt *Datatype, view any, plan segPlan, limit int) (*recvStream, error) {
	r := &recvStream{c: c, src: src, bdt: bdt, win: mpjdev.NewWindow(limit), view: view, plan: plan}
	for r.next < min(limit, plan.segs) {
		if err := r.postNext(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// postNext posts a landing stream's next segment.
func (r *recvStream) postNext() error {
	off, cnt := r.plan.bounds(r.next)
	r.next++
	return r.post(r.view, off, cnt, segTag(r.next-1))
}

// post starts the receive of one segment destined for dst[off:off+n],
// which is offered to the device as the segment's landing zone.
func (r *recvStream) post(dst any, off, n, tag int) error {
	b := devcore.GetBuffer()
	land(b, dst, off, n, r.bdt)
	req, err := r.c.coll.Irecv(b, r.src, tag)
	if err != nil {
		putSendBuf(b)
		return err
	}
	if err := r.win.Add(req); err != nil {
		return err
	}
	r.pend = append(r.pend, pendSeg{buf: b, dst: dst, off: off, n: n})
	return nil
}

// deliver waits for the oldest outstanding segment, unpacks it into
// its target region, and recycles the wire buffer.
func (r *recvStream) deliver() error {
	b, err := r.deliverKeep()
	if err == nil {
		putSendBuf(b)
	}
	return err
}

// deliverKeep is deliver, except the segment buffer is handed to the
// caller instead of recycled — a forwarding rank re-sends it to its
// children as-is, skipping the unpack→repack round trip. A segment that
// landed in its target region is forwarded from there: the buffer then
// holds only the section header and aliases the region, which must stay
// unmodified until the forwards complete.
func (r *recvStream) deliverKeep() (*mpjbuf.Buffer, error) {
	if _, err := r.win.WaitOldest(); err != nil {
		return nil, err
	}
	p := r.pend[0]
	r.pend = r.pend[1:]
	sub, err := sliceRegion(p.dst, p.off, p.n)
	if err != nil {
		putSendBuf(p.buf)
		return nil, err
	}
	if _, err := unpack(p.buf, sub, 0, p.n, r.bdt); err != nil {
		putSendBuf(p.buf)
		return nil, err
	}
	r.c.p.counters.CollSegsRecv.Add(1)
	if r.view != nil && r.next < r.plan.segs {
		if err := r.postNext(); err != nil {
			putSendBuf(p.buf)
			return nil, err
		}
	}
	return p.buf, nil
}

// fwdWindow is the bounded window of a rank that fans one packed
// segment buffer out to several children: the buffer is shared by all
// of a segment's sends and recycled only when the oldest segment's
// requests have all completed.
type fwdSeg struct {
	buf  *mpjbuf.Buffer
	reqs []*mpjdev.Request
}

type fwdWindow struct {
	limit int
	segs  []fwdSeg
}

func newFwdWindow() *fwdWindow { return &fwdWindow{limit: collCfg.window} }

// forward posts buf to every child under tag and enters it into the
// window, retiring the oldest segment first if the window is full.
// The window owns buf from here on, even on error.
func (f *fwdWindow) forward(c *Comm, buf *mpjbuf.Buffer, children []int, tag int) error {
	if len(f.segs) == f.limit {
		if err := f.retireOldest(); err != nil {
			putSendBuf(buf)
			return err
		}
	}
	seg := fwdSeg{buf: buf}
	for _, ch := range children {
		req, err := c.coll.Isend(buf, ch, tag)
		if err != nil {
			f.segs = append(f.segs, seg) // drain started sends via the window
			return err
		}
		seg.reqs = append(seg.reqs, req)
		c.p.counters.CollSegsSent.Add(1)
	}
	f.segs = append(f.segs, seg)
	return nil
}

func (f *fwdWindow) retireOldest() error {
	s := f.segs[0]
	f.segs = f.segs[1:]
	var first error
	for _, r := range s.reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	putSendBuf(s.buf)
	return first
}

func (f *fwdWindow) drain() error {
	var first error
	for len(f.segs) > 0 {
		if err := f.retireOldest(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// bcastPipelined is the segmented binomial-tree broadcast: the payload
// moves down the same tree as the flat Bcast, but a rank forwards
// segment k to its children as soon as it arrives, while segment k+1
// is still in flight from its parent. End-to-end latency drops from
// O(depth·msg) to O(depth·seg + msg).
func (c *Intracomm) bcastPipelined(buf any, offset, count int, dt *Datatype, root int) error {
	n := c.Size()
	rank := c.Rank()
	rel := (rank - root + n) % n

	// Tree neighbours, same shape as the flat Bcast: the parent sits at
	// rel minus its lowest set bit; children at rel+m for every m below
	// that bit (below the tree size for the root), largest subtree
	// first.
	parent := -1
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent = (rel - mask + root) % n
			break
		}
		mask <<= 1
	}
	var children []int
	for m := mask >> 1; m > 0; m >>= 1 {
		if rel+m < n {
			children = append(children, (rel+m+root)%n)
		}
	}
	return c.bcastPipeTree(buf, offset, count, dt, parent, children)
}

// bcastPipeTree runs the segmented broadcast stream over an explicit
// tree: parent is the rank segments arrive from (-1 at the root) and
// children the ranks each segment is forwarded to. The hierarchical
// broadcast feeds it a fused two-level tree (wire edges between node
// representatives, shared-memory edges within each node), so segments
// stream from the root through the leaders into the leaves with no
// phase barrier in between.
func (c *Intracomm) bcastPipeTree(buf any, offset, count int, dt *Datatype, parent int, children []int) error {
	if parent < 0 && len(children) == 0 {
		return nil
	}
	view, writeback, err := contiguousView(buf, offset, count, dt, parent >= 0)
	if err != nil {
		return err
	}
	bdt, err := baseDt(view)
	if err != nil {
		return err
	}
	plan := planSegments(count*dt.Size(), max(dt.Base().Size(), 1), 1)

	// One wire buffer per segment, shared by every child send: the root
	// sends each segment from the user's array, and every other rank
	// forwards the buffer it received as-is — which, for a segment that
	// landed in the user's array, again sends from there. Per message no
	// rank packs or unpacks a contiguous payload at all, where the flat
	// tree repacks on every edge.
	fwd := newFwdWindow()
	if parent < 0 {
		for s := 0; s < plan.segs; s++ {
			off, cnt := plan.bounds(s)
			b := devcore.GetBuffer()
			if err := packInto(b, view, off, cnt, bdt); err != nil {
				putSendBuf(b)
				return err
			}
			if err := fwd.forward(&c.Comm, b, children, segTag(s)); err != nil {
				return err
			}
		}
	} else {
		rs, err := c.newLandingStream(parent, bdt, view, plan, landingCap)
		if err != nil {
			return err
		}
		for s := 0; s < plan.segs; s++ {
			b, err := rs.deliverKeep()
			if err != nil {
				return err
			}
			if len(children) == 0 {
				putSendBuf(b)
				continue
			}
			if err := fwd.forward(&c.Comm, b, children, segTag(s)); err != nil {
				return err
			}
		}
	}
	if err := fwd.drain(); err != nil {
		return err
	}
	if writeback != nil {
		return writeback()
	}
	return nil
}

// reducePipelined is the segmented binomial-tree reduce for
// commutative ops: for each segment a rank receives its children's
// contributions into per-child window rings, folds them in the same
// increasing-mask order as the flat tree, and forwards the folded
// segment to its parent while later segments are still arriving. The
// per-element fold nesting matches the flat algorithm exactly, so
// results are bit-identical to the unsegmented tree.
func (c *Intracomm) reducePipelined(scratch any, elems int, bdt *Datatype, op *Op,
	recvbuf any, roff, count int, dt *Datatype, root int) error {
	n := c.Size()
	rank := c.Rank()
	rel := (rank - root + n) % n

	parent := -1
	var children []int
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			parent = (rel - mask + root) % n
			break
		}
		if rel|mask < n {
			children = append(children, ((rel|mask)+root)%n)
		}
	}
	if err := c.reducePipeTree(scratch, elems, bdt, op, parent, children); err != nil {
		return err
	}
	if parent < 0 {
		return fromScratch(scratch, recvbuf, roff, count, dt)
	}
	return nil
}

// reducePipeTree runs the segmented commutative fold over an explicit
// tree: each rank folds its children's segment streams into scratch
// and forwards the folded segments to parent (-1 at the root, where
// the result stays in scratch). The hierarchical reduce feeds it a
// fused two-level tree, so a node representative folds its local
// members and its downstream representatives in one overlapped stream.
func (c *Intracomm) reducePipeTree(scratch any, elems int, bdt *Datatype, op *Op,
	parent int, children []int) (err error) {
	if parent < 0 && len(children) == 0 {
		return nil
	}
	plan := planSegments(elems, max(bdt.Base().Size(), 1), op.atom)

	// Per-child receive streams unpack into window-sized rings of
	// segment slots, allocated once and reused across all segments
	// (slot s%window holds segment s; it is reused only after segment
	// s has been folded).
	type childStream struct {
		rs   *recvStream
		ring any
	}
	streams := make([]*childStream, len(children))
	var puts []func()
	defer recycle(&puts, &err)
	ahead := min(collCfg.window, plan.segs)
	for i, ch := range children {
		ring, put, err := tempLike(scratch, collCfg.window*plan.segElems)
		if err != nil {
			return err
		}
		puts = append(puts, put)
		streams[i] = &childStream{rs: c.newRecvStream(ch, bdt), ring: ring}
		for s := 0; s < ahead; s++ {
			_, cnt := plan.bounds(s)
			slot := (s % collCfg.window) * plan.segElems
			if err := streams[i].rs.post(ring, slot, cnt, segTag(s)); err != nil {
				return err
			}
		}
	}

	var ps *sendStream
	if parent >= 0 {
		ps = c.newSendStream(parent)
	}
	for s := 0; s < plan.segs; s++ {
		off, cnt := plan.bounds(s)
		seg, err := sliceRegion(scratch, off, cnt)
		if err != nil {
			return err
		}
		for _, cs := range streams {
			if err := cs.rs.deliver(); err != nil {
				return err
			}
			slot := (s % collCfg.window) * plan.segElems
			in, err := sliceRegion(cs.ring, slot, cnt)
			if err != nil {
				return err
			}
			if err := op.apply(in, seg); err != nil {
				return err
			}
			if nxt := s + ahead; nxt < plan.segs {
				_, ncnt := plan.bounds(nxt)
				nslot := (nxt % collCfg.window) * plan.segElems
				if err := cs.rs.post(cs.ring, nslot, ncnt, segTag(nxt)); err != nil {
					return err
				}
			}
		}
		if ps != nil {
			if err := ps.send(scratch, off, cnt, bdt, segTag(s)); err != nil {
				return err
			}
		}
	}
	if ps != nil {
		return ps.drain()
	}
	return nil
}

// reduceStreamedFold is the non-commutative Reduce: every rank streams
// its contribution to the root in windowed segments, and the root
// folds the streams strictly in rank order — seeding with rank n-1 and
// applying acc = p_i op acc for i = n-2..0, the same association and
// operand order as the flat rank-ordered fold, so results are
// bit-identical. Unlike the flat path, which buffers n-1 full
// messages, the root holds only a window of segments per peer:
// memory O(n·window·segment + message) instead of O(n·message).
func (c *Intracomm) reduceStreamedFold(scratch any, elems int, bdt *Datatype, op *Op,
	recvbuf any, roff, count int, dt *Datatype, root int) (err error) {
	n := c.Size()
	rank := c.Rank()
	plan := planSegments(elems, max(bdt.Base().Size(), 1), op.atom)

	if rank != root {
		st := c.newSendStream(root)
		for s := 0; s < plan.segs; s++ {
			off, cnt := plan.bounds(s)
			if err := st.send(scratch, off, cnt, bdt, segTag(s)); err != nil {
				return err
			}
		}
		return st.drain()
	}

	acc, putAcc, err := tempLike(scratch, elems)
	if err != nil {
		return err
	}
	puts := []func(){putAcc}
	defer recycle(&puts, &err)

	ahead := min(collCfg.window, plan.segs)
	streams := make([]*recvStream, n)
	rings := make([]any, n)
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		rs := c.newRecvStream(i, bdt)
		streams[i] = rs
		if i == n-1 {
			// The seed contribution streams straight into acc at its
			// final offsets: no intermediate copy.
			for s := 0; s < ahead; s++ {
				off, cnt := plan.bounds(s)
				if err := rs.post(acc, off, cnt, segTag(s)); err != nil {
					return err
				}
			}
			continue
		}
		ring, put, err := tempLike(scratch, collCfg.window*plan.segElems)
		if err != nil {
			return err
		}
		puts = append(puts, put)
		rings[i] = ring
		for s := 0; s < ahead; s++ {
			_, cnt := plan.bounds(s)
			slot := (s % collCfg.window) * plan.segElems
			if err := rs.post(ring, slot, cnt, segTag(s)); err != nil {
				return err
			}
		}
	}
	if root == n-1 {
		if err := fromScratch(scratch, acc, 0, elems, bdt); err != nil {
			return err
		}
	}

	// advance delivers stream i's current segment and keeps its window
	// topped up.
	advance := func(i, s int) error {
		if err := streams[i].deliver(); err != nil {
			return err
		}
		nxt := s + ahead
		if nxt >= plan.segs {
			return nil
		}
		off, cnt := plan.bounds(nxt)
		if i == n-1 {
			return streams[i].post(acc, off, cnt, segTag(nxt))
		}
		slot := (nxt % collCfg.window) * plan.segElems
		return streams[i].post(rings[i], slot, cnt, segTag(nxt))
	}

	for s := 0; s < plan.segs; s++ {
		off, cnt := plan.bounds(s)
		if root != n-1 {
			if err := advance(n-1, s); err != nil {
				return err
			}
		}
		accSeg, err := sliceRegion(acc, off, cnt)
		if err != nil {
			return err
		}
		for i := n - 2; i >= 0; i-- {
			var in any
			if i == root {
				if in, err = sliceRegion(scratch, off, cnt); err != nil {
					return err
				}
			} else {
				if err := advance(i, s); err != nil {
					return err
				}
				slot := (s % collCfg.window) * plan.segElems
				if in, err = sliceRegion(rings[i], slot, cnt); err != nil {
					return err
				}
			}
			if err := op.apply(in, accSeg); err != nil {
				return err
			}
		}
	}
	return fromScratch(acc, recvbuf, roff, count, dt)
}

// blockStream is one large scatter/gather block moving as a segment
// stream between the root and one peer.
type blockStream struct {
	peer      int
	plan      segPlan
	view      any
	bdt       *Datatype
	writeback func() error
}

// newBlockStream prepares one root-side block of count items of dt at
// offset for streaming (needBack for gather, where the root writes the
// received data back through dt's layout).
func newBlockStream(buf any, offset, count int, dt *Datatype, peer int, needBack bool) (*blockStream, error) {
	view, writeback, err := contiguousView(buf, offset, count, dt, needBack)
	if err != nil {
		return nil, err
	}
	bdt, err := baseDt(view)
	if err != nil {
		return nil, err
	}
	return &blockStream{
		peer:      peer,
		plan:      planSegments(count*dt.Size(), max(dt.Base().Size(), 1), 1),
		view:      view,
		bdt:       bdt,
		writeback: writeback,
	}, nil
}

// streamBlocksOut drives the root side of a segmented scatter:
// segment-major across the per-peer streams, so every destination's
// pipeline fills concurrently instead of one peer at a time.
func (c *Intracomm) streamBlocksOut(blocks []*blockStream) error {
	sends := make([]*sendStream, len(blocks))
	for i, b := range blocks {
		sends[i] = c.newSendStream(b.peer)
	}
	for s := 0; ; s++ {
		active := false
		for i, b := range blocks {
			if s >= b.plan.segs {
				continue
			}
			active = true
			off, cnt := b.plan.bounds(s)
			if err := sends[i].send(b.view, off, cnt, b.bdt, segTag(s)); err != nil {
				return err
			}
		}
		if !active {
			break
		}
	}
	for _, st := range sends {
		if err := st.drain(); err != nil {
			return err
		}
	}
	return nil
}

// streamBlocksIn drives the root side of a segmented gather: one
// landing stream per streaming peer, all posted first, then delivered
// peer by peer. The peers share landingCap posted receives, but each
// keeps at least a window's worth.
func (c *Intracomm) streamBlocksIn(blocks []*blockStream) error {
	limit := max(collCfg.window, landingCap/max(len(blocks), 1))
	recvs := make([]*recvStream, len(blocks))
	for i, b := range blocks {
		rs, err := c.newLandingStream(b.peer, b.bdt, b.view, b.plan, limit)
		if err != nil {
			return err
		}
		recvs[i] = rs
	}
	for i, b := range blocks {
		for s := 0; s < b.plan.segs; s++ {
			if err := recvs[i].deliver(); err != nil {
				return err
			}
		}
		if b.writeback != nil {
			if err := b.writeback(); err != nil {
				return err
			}
		}
	}
	return nil
}

// streamBlockSend is the peer side of a segmented gather: stream the
// local contribution to the root.
func (c *Intracomm) streamBlockSend(buf any, offset, count int, dt *Datatype, root int) error {
	b, err := newBlockStream(buf, offset, count, dt, root, false)
	if err != nil {
		return err
	}
	return c.streamBlocksOut([]*blockStream{b})
}

// streamBlockRecv is the peer side of a segmented scatter: receive the
// local block as a stream from the root.
func (c *Intracomm) streamBlockRecv(buf any, offset, count int, dt *Datatype, root int) error {
	b, err := newBlockStream(buf, offset, count, dt, root, true)
	if err != nil {
		return err
	}
	return c.streamBlocksIn([]*blockStream{b})
}

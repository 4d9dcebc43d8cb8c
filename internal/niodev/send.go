package niodev

import (
	"net"
	"sync"
	"time"

	"mpj/internal/devcore"
	"mpj/internal/xdev"
)

// This file is the device's one outbound path. Every frame to a peer —
// eager data, RTS, rendezvous data, ACK, RTR, revoke, abort, bye — is
// appended to that peer's FIFO queue, and whoever holds the queue's
// writer role writes it. The role is the paper's per-destination channel
// lock ("lock dest channel / send / unlock", §IV-A); because senders
// append instead of waiting for it, one write carries every frame queued
// behind the holder's. Two rules decide who writes:
//
//   - A may-block caller (an application thread) that finds the role
//     free takes it and writes its own frame, then the frames queued
//     behind it during that write (callerBatches). Anything queued after
//     that goes to a flusher goroutine.
//   - Anything else — above all an input handler sending an ACK, an RTR
//     or a forwarded revoke — never writes and never waits (§IV-A.2): it
//     appends, and starts a flusher only if the role is free.
//
// A handler therefore waits for nothing but its own read, so a writer
// blocked on a full connection is always drained by the peer's handler:
// two ranks flooding each other cannot deadlock.
//
// Buffering bounds the queue: a may-block caller that finds the role
// held, with standard-mode eager data under stageSegMax, copies the
// payload into a pooled slice and completes its request at once, as MPI
// lets a buffered eager send — but only while under maxBatchBytes are
// queued to the peer; past that it waits for the wire (backpressure).
// Every other data frame's request waits for the write, and control
// frames come at most one per inbound RTS or sync-eager frame.
//
// Order: frames to one peer are written in append order, so the MPI
// non-overtaking guarantee per (src,dst) holds, and Finish's bye goes
// out behind every frame queued before it. Completion: a frame carrying
// a request completes it once the frame is on the wire, never before —
// buffer ownership returns to the user at completion. Failure: peer
// death poisons the queue, failing every queued frame's request (a
// buffered frame's loss surfaces on the next operation naming the peer).

const (
	// maxBatchFrames caps the frames coalesced into one wire write, and
	// maxBatchBytes the bytes, bounding both the gather list and the
	// latency a queued frame can hide behind a giant batch.
	maxBatchFrames = 64
	maxBatchBytes  = 1 << 20

	// stageSegMax is the payload-segment size below which the batch
	// writer memcpys the segment into its staging buffer instead of
	// adding a gather entry. A batch of small messages then becomes
	// exactly one contiguous Write — one syscall on TCP, one ring-buffer
	// round on the in-process pipe — while large segments are still
	// written zero-copy from the user's buffer.
	stageSegMax = 4 << 10

	// callerBatches is how many batches a may-block caller writes before
	// handing the rest of the queue to a flusher: the one carrying its own
	// frame (the first, since the queue is empty whenever the role is
	// free) and the one queued behind it meanwhile. On a 2-vCPU host,
	// handing off right after the first cost msgrate_mt_512B 10-14 % of
	// its ops/s (a goroutine start per contended send); writing until the
	// queue is empty was no faster and leaves a caller's latency
	// unbounded.
	callerBatches = 2

	// goodbyeFlush bounds how long Finish and Abort wait for their
	// broadcast frames (queued behind everything sent before) to reach
	// the wire before the connections are torn down regardless.
	goodbyeFlush = 500 * time.Millisecond
)

// sendFrame is one queued wire message: the encoded header, the payload
// segments (owned by the sending request's buffer until completion),
// and what to tell once the frame is written or failed.
type sendFrame struct {
	hdr  []byte   // encoded headerLen bytes from the devcore slice pool
	segs [][]byte // payload segments; nil for control frames
	wire int      // total payload bytes (header excluded)
	own  []byte   // pooled copy of the payload once buffered, else nil

	// req, when non-nil, is completed with st once the frame is on the
	// wire (or with the peer's death error if it never gets there).
	// Control frames and protocol exchanges whose completion is a
	// *reply* (sync-send ACK, rendezvous RTR) leave it nil: their
	// requests live in core-registered pending sets that the failure
	// drains cover.
	req *devcore.Request
	st  xdev.Status

	// sent, when non-nil, receives a value once the frame is written or
	// failed; broadcast sizes its buffer to the frames it waits on.
	sent chan<- struct{}
}

var framePool = sync.Pool{New: func() any { return new(sendFrame) }}

func getFrame() *sendFrame { return framePool.Get().(*sendFrame) }

func putFrame(f *sendFrame) {
	devcore.PutSlice(f.hdr)
	devcore.PutSlice(f.own)
	clear(f.segs)
	*f = sendFrame{segs: f.segs[:0]}
	framePool.Put(f)
}

// buffer copies f's payload into one pooled slice the frame owns, so
// the sender's buffer is free, and detaches the request post completes.
func (f *sendFrame) buffer() {
	f.req = nil
	f.own = devcore.GetSlice(f.wire)
	n := 0
	for _, s := range f.segs {
		n += copy(f.own[n:], s)
	}
	clear(f.segs)
	f.segs = append(f.segs[:0], f.own)
}

// completeFrames finishes frames that were written (err nil) or will
// never be (err non-nil), and recycles them.
func completeFrames(frames []*sendFrame, err error) {
	for _, f := range frames {
		if f.req != nil {
			if err != nil {
				f.req.Complete(xdev.Status{}, err)
			} else {
				f.req.Complete(f.st, nil)
			}
		}
		if f.sent != nil {
			f.sent <- struct{}{}
		}
		putFrame(f)
	}
}

// peerQueue is one peer's connection, as written to, and the frames
// waiting for it. mu is never held across I/O.
type peerQueue struct {
	mu      sync.Mutex
	conn    net.Conn     // nil until Init has dialed the peer
	frames  []*sendFrame // frames[head:] wait, oldest first
	head    int
	queued  int   // header and payload bytes in frames[head:]
	writing bool  // the writer role is held
	err     error // poison: the peer is gone or the device closed

	// Scratch reused by whoever holds the writer role.
	batch   []*sendFrame
	staging []byte
	gather  net.Buffers
}

// take pops the next batch, up to maxBatchFrames / maxBatchBytes, into
// q.batch. Called with mu held by the writer role's holder.
func (q *peerQueue) take() []*sendFrame {
	batch := q.batch[:0]
	bytes := 0
	for q.head < len(q.frames) && len(batch) < maxBatchFrames {
		f := q.frames[q.head]
		if len(batch) > 0 && bytes+len(f.hdr)+f.wire > maxBatchBytes {
			break
		}
		batch = append(batch, f)
		bytes += len(f.hdr) + f.wire
		q.frames[q.head] = nil
		q.head++
	}
	q.queued -= bytes
	switch {
	case q.head == len(q.frames):
		q.frames, q.head = q.frames[:0], 0
	case q.head > 32 && q.head > len(q.frames)/2:
		// Mostly consumed, never empty: drop the prefix to bound the array.
		q.frames, q.head = q.frames[q.head:], 0
	}
	return batch
}

// poison fails the queue with err: later posts fail with it, and the
// frames still queued are returned for the caller to fail. The first
// error sticks.
func (q *peerQueue) poison(err error) []*sendFrame {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err == nil {
		q.err = err
	}
	dropped := append([]*sendFrame(nil), q.frames[q.head:]...)
	clear(q.frames)
	q.frames, q.head, q.queued = q.frames[:0], 0, 0
	return dropped
}

// link returns the queue's connection.
func (q *peerQueue) link() net.Conn {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.conn
}

// queue returns slot's queue, or nil for self and out-of-range slots.
func (d *Device) queue(slot int) *peerQueue {
	if slot < 0 || slot >= len(d.queues) {
		return nil
	}
	return d.queues[slot]
}

// newFrame builds a frame for h and segments, encoding the header with
// both checksums (a rendezvous payload's comes in h) into a pooled slice.
func (d *Device) newFrame(h header, segments [][]byte, req *devcore.Request, st xdev.Status) *sendFrame {
	hdr := devcore.GetSlice(headerLen)
	if h.typ != msgRndvData { // StartSend summed it during the handshake
		h.payCRC = payloadCRC(segments)
	}
	h.encode(hdr)
	f := getFrame()
	f.hdr = hdr
	f.segs = append(f.segs, segments...)
	for _, s := range segments {
		f.wire += len(s)
	}
	f.req = req
	f.st = st
	return f
}

// send queues one protocol frame to slot; req, when non-nil, completes
// with st once the frame is on the wire, or at once if post buffers it.
// mayBlock says whether the caller may write it itself (see the file
// comment); input handlers pass false.
//
// The contract on error: req has NOT been completed, no frame was (or
// will be) written, and the returned error is final — the peer's death
// error (errors.Is xdev.ErrPeerLost) or the device-closed / abort shape.
// Callers only unwind their own registration state. A frame accepted
// but lost on the wire completes req through the failure path instead.
func (d *Device) send(slot int, h header, segments [][]byte, req *devcore.Request, st xdev.Status, mayBlock bool) error {
	f := d.newFrame(h, segments, req, st)
	if err := d.post(slot, f, mayBlock); err != nil {
		f.req = nil // the caller keeps ownership on the error path
		putFrame(f)
		return err
	}
	return nil
}

// post appends f to slot's queue and makes sure a writer will carry it:
// the current role holder, the caller itself (mayBlock), or a new
// flusher, buffering a small eager frame left to the holder.
func (d *Device) post(slot int, f *sendFrame, mayBlock bool) error {
	q := d.queue(slot)
	if q == nil {
		return xdev.Errf(DeviceName, "send", "no channel to slot %d", slot)
	}
	q.mu.Lock()
	err := q.err
	if err == nil && q.conn == nil {
		err = xdev.Errf(DeviceName, "send", "no channel to slot %d", slot)
	}
	if err != nil {
		q.mu.Unlock()
		return err
	}
	req, st := f.req, f.st // the holder may recycle f once q.mu is released
	buffered := q.writing && mayBlock && req != nil && f.hdr[0] == msgEager &&
		f.wire < stageSegMax && q.queued < maxBatchBytes
	if buffered {
		f.buffer()
	}
	q.frames = append(q.frames, f)
	q.queued += len(f.hdr) + f.wire
	if q.writing {
		q.mu.Unlock()
		if buffered {
			req.Complete(st, nil)
		}
		return nil
	}
	q.writing = true
	if !mayBlock {
		d.startFlusher(slot, q)
		q.mu.Unlock()
		return nil
	}
	q.mu.Unlock()
	d.writeQueued(slot, q, callerBatches)
	return nil
}

// startFlusher hands q's writer role to a new goroutine. Called with
// q.mu held and q not poisoned, so the handlerWG.Add happens before
// shutdown's poison and therefore before its Wait.
func (d *Device) startFlusher(slot int, q *peerQueue) {
	d.handlerWG.Add(1)
	go func() {
		defer d.handlerWG.Done()
		d.writeQueued(slot, q, 0)
	}()
}

// writeQueued writes batches while holding q's writer role, until the
// queue is empty or, when limit > 0, limit batches are written and a
// flusher takes over the rest. The role is released only with the queue
// empty (or poisoned), so a queued frame never lacks a writer.
func (d *Device) writeQueued(slot int, q *peerQueue, limit int) {
	for n := 0; ; n++ {
		q.mu.Lock()
		if q.err != nil || q.head == len(q.frames) {
			q.writing = false
			q.mu.Unlock()
			return
		}
		if limit > 0 && n == limit {
			d.startFlusher(slot, q)
			q.mu.Unlock()
			return
		}
		batch := q.take()
		conn := q.conn
		q.mu.Unlock()

		if err := d.writeBatch(conn, q, batch); err != nil {
			completeFrames(batch, d.peerLost(slot, err))
			d.markPeerDead(slot, err)
		} else {
			completeFrames(batch, nil)
		}
		clear(batch)
		q.batch = batch[:0]
	}
}

// writeBatch is the one place frames reach a peer's connection: the
// batch goes out in one Write/writev, headers and payload segments under
// stageSegMax copied into the queue's staging buffer, larger segments
// referenced zero-copy from the sender's buffer. Only the writer role's
// holder calls it.
func (d *Device) writeBatch(conn net.Conn, q *peerQueue, batch []*sendFrame) error {
	// Pre-size the staging area so appends cannot reallocate under the
	// gather entries that alias it.
	staged, total := 0, 0
	for _, f := range batch {
		staged += len(f.hdr)
		total += len(f.hdr) + f.wire
		for _, s := range f.segs {
			if len(s) < stageSegMax {
				staged += len(s)
			}
		}
	}
	st := q.staging[:0]
	if cap(st) < staged {
		st = make([]byte, 0, staged)
	}
	g := q.gather[:0]
	mark := 0
	for _, f := range batch {
		st = append(st, f.hdr...)
		for _, s := range f.segs {
			if len(s) >= stageSegMax {
				if len(st) > mark {
					g = append(g, st[mark:len(st):len(st)])
					mark = len(st)
				}
				g = append(g, s)
			} else {
				st = append(st, s...)
			}
		}
	}
	if len(st) > mark {
		g = append(g, st[mark:len(st):len(st)])
	}
	q.staging = st

	var err error
	if len(g) == 1 {
		_, err = conn.Write(g[0])
	} else {
		wb := g
		_, err = wb.WriteTo(conn) // consumes wb; g keeps the backing
	}
	clear(g[:cap(g)])
	q.gather = g[:0]
	if err != nil {
		return err
	}

	c := &d.core.Counters
	c.SendBatches.Add(1)
	c.FramesCoalesced.Add(uint64(len(batch)))
	c.SendBatchBytes.Add(uint64(total))
	return nil
}

// failQueued poisons slot's queue with err and fails every queued
// frame's request with it.
func (d *Device) failQueued(slot int, err error) {
	if q := d.queue(slot); q != nil {
		completeFrames(q.poison(err), err)
	}
}

// broadcast queues h to every live peer except skip, waiting on no
// writer. With wait > 0 it then waits, at most that long, for the frames
// to reach the wire — each behind everything queued to its peer before.
func (d *Device) broadcast(h header, skip int, wait time.Duration) {
	sent := make(chan struct{}, len(d.pids))
	posted := 0
	for slot := range d.pids {
		if slot == d.cfg.Rank || slot == skip || d.peerErr(slot) != nil {
			continue
		}
		f := d.newFrame(h, nil, nil, xdev.Status{})
		f.sent = sent
		if d.post(slot, f, false) != nil {
			// Best effort: a peer that is already gone cannot be told.
			putFrame(f)
			continue
		}
		posted++
	}
	if wait > 0 {
		_ = awaitN(sent, posted, wait) // a wedged peer sees EOF instead
	}
}

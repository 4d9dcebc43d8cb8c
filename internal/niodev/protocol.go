package niodev

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"

	"mpj/internal/devcore"
	"mpj/internal/match"
	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// Wire message types.
const (
	msgEager     = 1 // standard-mode eager data
	msgEagerSync = 2 // synchronous-mode eager data; receiver ACKs on match
	msgRTS       = 3 // rendezvous READY_TO_SEND
	msgRTR       = 4 // rendezvous READY_TO_RECV
	msgRndvData  = 5 // rendezvous payload
	msgAck       = 6 // eager-sync matched acknowledgement
	msgAbort     = 7 // job abort broadcast; tag carries the abort code
	msgBye       = 8 // graceful departure: the sender finished cleanly
	msgRevoke    = 9 // context revocation broadcast; ctx carries the context
)

// headerLen is the fixed wire header:
// type(1) pad(3) src(4) tag(4) ctx(4) seq(8) wireLen(8) payCRC(4) hdrCRC(4).
//
// Every frame carries both checksums, CRC-32C (Castagnoli): hdrCRC over
// bytes [0:36), zero padding included, and payCRC over the payload.
const headerLen = 40

const helloMagic = 0x4d504a45 // "MPJE"

// castagnoli is the CRC-32C table shared by all frame checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type header struct {
	typ     uint8
	src     uint32
	tag     int32
	ctx     int32
	seq     uint64
	wireLen uint64
	payCRC  uint32
}

func (h header) encode(dst []byte) {
	dst[0] = h.typ
	dst[1], dst[2], dst[3] = 0, 0, 0
	binary.BigEndian.PutUint32(dst[4:8], h.src)
	binary.BigEndian.PutUint32(dst[8:12], uint32(h.tag))
	binary.BigEndian.PutUint32(dst[12:16], uint32(h.ctx))
	binary.BigEndian.PutUint64(dst[16:24], h.seq)
	binary.BigEndian.PutUint64(dst[24:32], h.wireLen)
	binary.BigEndian.PutUint32(dst[32:36], h.payCRC)
	binary.BigEndian.PutUint32(dst[36:40], crc32.Checksum(dst[0:36], castagnoli))
}

func decodeHeader(src []byte) header {
	return header{
		typ:     src[0],
		src:     binary.BigEndian.Uint32(src[4:8]),
		tag:     int32(binary.BigEndian.Uint32(src[8:12])),
		ctx:     int32(binary.BigEndian.Uint32(src[12:16])),
		seq:     binary.BigEndian.Uint64(src[16:24]),
		wireLen: binary.BigEndian.Uint64(src[24:32]),
		payCRC:  binary.BigEndian.Uint32(src[32:36]),
	}
}

// verifyHeader checks a raw frame header against its hdrCRC.
func verifyHeader(raw []byte) error {
	want := binary.BigEndian.Uint32(raw[36:40])
	if got := crc32.Checksum(raw[0:36], castagnoli); got != want {
		return fmt.Errorf("niodev: header checksum mismatch (got %#x want %#x): %w",
			got, want, xdev.ErrCorruptFrame)
	}
	return nil
}

// errBadHello marks a handshake the acceptor or the dialer rejects.
var errBadHello = errors.New("niodev: bad hello")

// writeHello writes the hello each side sends once, the dialer first,
// naming its writer and reader.
func writeHello(c net.Conn, from, to uint32) error {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:4], helloMagic)
	binary.BigEndian.PutUint32(b[4:8], from)
	binary.BigEndian.PutUint32(b[8:12], to)
	_, err := c.Write(b[:])
	return err
}

func readHello(c net.Conn) (from, to uint32, err error) {
	var b [12]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return 0, 0, err
	}
	if binary.BigEndian.Uint32(b[0:4]) != helloMagic {
		return 0, 0, fmt.Errorf("%w: magic %#x", errBadHello, binary.BigEndian.Uint32(b[0:4]))
	}
	return binary.BigEndian.Uint32(b[4:8]), binary.BigEndian.Uint32(b[8:12]), nil
}

// crcReader accumulates a CRC-32C over, and a count of, everything read
// through it, so payloads streamed straight into user buffers can still
// be verified.
type crcReader struct {
	r   io.Reader
	sum uint32
	n   int64
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.sum = crc32.Update(c.sum, castagnoli, p[:n])
		c.n += int64(n)
	}
	return n, err
}

// payloadCRC checksums a payload's segments as one stream.
func payloadCRC(segments [][]byte) uint32 {
	var sum uint32
	for _, s := range segments {
		sum = crc32.Update(sum, castagnoli, s)
	}
	return sum
}

// isend implements the four send modes. sync selects synchronous
// completion semantics (Ssend/ISsend).
func (d *Device) isend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int, sync bool) (*devcore.Request, error) {
	// One core-lock round trip gates the send: abort/closed, then unknown
	// process, then dead peer, then revoked context. slotOf takes no lock,
	// so an unknown process only asks the core whether the device is down.
	slot, err := d.slotOf(dst)
	if err == nil {
		err = d.core.SendGate("isend", uint64(slot), int32(context))
	} else if opErr := d.opErr("isend"); opErr != nil {
		err = opErr
	}
	if err != nil {
		return nil, err
	}
	req := d.core.NewRequest(devcore.SendReq, buf)
	req.OpCtx = int32(context)
	wireLen := buf.WireLen()
	if d.rec.Enabled() {
		req.Trace(int32(slot), int32(tag), int32(context))
		d.rec.Event(mpe.SendBegin, int32(slot), int32(tag), int32(context), int64(wireLen))
	}

	if slot == d.cfg.Rank {
		d.deliverSelf(buf, tag, context, sync, req)
		return req, nil
	}

	if wireLen <= d.eagerLimit {
		// Eager protocol (paper Fig. 3): write the data immediately and
		// return a non-pending request — unless synchronous, in which
		// case completion waits for the receiver's match ACK.
		typ := uint8(msgEager)
		var seq uint64
		if sync {
			typ = msgEagerSync
			seq = d.core.NextSeqSend(uint64(slot), int32(context), int32(tag))
			if err := d.pendingSync.Add(devcore.PendingKey{Peer: uint64(slot), Seq: seq}, req); err != nil {
				return nil, err // peer death or shutdown raced the gate checks
			}
		} else if d.rec.Enabled() || d.core.ReplayActive() {
			// Plain eager frames only need a seq for cross-rank trace
			// correlation and the record/replay match stamp, so the
			// counter bump is paid only when one of those is on.
			seq = d.core.NextSeqSend(uint64(slot), int32(context), int32(tag))
		}
		req.SetSeq(seq)
		if d.core.ReplayActive() {
			req.SetReplayID(int64(slot), int32(tag), int32(context), seq)
		}
		d.core.Counters.EagerSent.Add(1)
		d.core.Counters.BytesSent.Add(uint64(wireLen))
		h := header{typ: typ, src: uint32(d.cfg.Rank), tag: int32(tag), ctx: int32(context), seq: seq, wireLen: uint64(wireLen)}
		// A non-sync eager request rides the frame: whoever writes it
		// completes it once the data is on the wire — buffer ownership
		// returns to the user at completion. A sync request's completion
		// is the receiver's ACK, so its frame carries no request.
		var freq *devcore.Request
		if !sync {
			freq = req
		}
		var segs [4][]byte
		if err := d.send(slot, h, buf.AppendSegments(segs[:0]), freq, xdev.Status{Source: d.self, Tag: tag, Bytes: wireLen}, true); err != nil {
			if sync {
				if _, mine := d.pendingSync.Take(devcore.PendingKey{Peer: uint64(slot), Seq: seq}); !mine {
					// The peer-death drain already owned and completed
					// this request; hand it back so Wait reports that.
					return req, nil
				}
			}
			return nil, err
		}
		if d.rec.Enabled() {
			d.rec.EventSeq(mpe.EagerOut, int32(slot), int32(tag), int32(context), int64(wireLen), seq)
		}
		return req, nil
	}

	// Rendezvous protocol (paper Fig. 6): register the pending send,
	// then announce with READY_TO_SEND. The core lock and the
	// destination's queue are taken one after the other, never nested,
	// so sends to other destinations don't block.
	d.core.Counters.RndvSent.Add(1)
	d.core.Counters.BytesSent.Add(uint64(wireLen))
	seq := d.core.NextSeqSend(uint64(slot), int32(context), int32(tag))
	req.SetSeq(seq)
	if d.core.ReplayActive() {
		req.SetReplayID(int64(slot), int32(tag), int32(context), seq)
	}
	req.SendTag, req.SendCtx = int32(tag), int32(context)
	if err := d.pendingRndv.Add(devcore.PendingKey{Peer: uint64(slot), Seq: seq}, req); err != nil {
		return nil, err // peer death or shutdown raced the gate checks
	}
	h := header{typ: msgRTS, src: uint32(d.cfg.Rank), tag: int32(tag), ctx: int32(context), seq: seq, wireLen: uint64(wireLen)}
	if err := d.send(slot, h, nil, nil, xdev.Status{}, true); err != nil {
		if _, mine := d.pendingRndv.Take(devcore.PendingKey{Peer: uint64(slot), Seq: seq}); !mine {
			return req, nil // completed by the peer-death drain
		}
		return nil, err
	}
	if d.rec.Enabled() {
		d.rec.EventSeq(mpe.RendezvousRTS, int32(slot), int32(tag), int32(context), int64(wireLen), seq)
	}
	// The payload checksum overlaps the handshake's round trip: this
	// pass and the input handler's READY_TO_RECV race, and whichever
	// finishes second posts the data frame — here, written by this thread.
	var segs [4][]byte
	s := buf.AppendSegments(segs[:0])
	beforeRndvChecksum()
	req.RndvCRC = payloadCRC(s)
	if req.RndvStep() {
		d.postRndvData(slot, req, seq, s, true)
	}
	return req, nil
}

// beforeRndvChecksum runs as a rendezvous checksum starts; tests replace
// it to order the pass against READY_TO_RECV.
var beforeRndvChecksum = func() {}

// postRndvData posts a rendezvous send's payload once both its checksum
// and READY_TO_RECV are in; mayBlock as for send. A post that fails
// completes req with the failure.
func (d *Device) postRndvData(slot int, req *devcore.Request, seq uint64, segs [][]byte, mayBlock bool) {
	wireLen := req.Buf.WireLen()
	h := header{
		typ: msgRndvData, src: uint32(d.cfg.Rank),
		tag: req.SendTag, ctx: req.SendCtx,
		seq: seq, wireLen: uint64(wireLen), payCRC: req.RndvCRC,
	}
	if err := d.send(slot, h, segs, req, xdev.Status{Source: d.self, Bytes: wireLen}, mayBlock); err != nil {
		req.Complete(xdev.Status{}, err)
		return
	}
	if d.rec.Enabled() {
		d.rec.EventSeq(mpe.RendezvousData, int32(slot), h.tag, h.ctx, int64(wireLen), seq)
	}
}

// ISend starts a standard-mode non-blocking send.
func (d *Device) ISend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	return d.isend(buf, dst, tag, context, false)
}

// Send is the blocking standard-mode send.
func (d *Device) Send(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	r, err := d.isend(buf, dst, tag, context, false)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// ISsend starts a synchronous-mode non-blocking send.
func (d *Device) ISsend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	return d.isend(buf, dst, tag, context, true)
}

// Ssend is the blocking synchronous-mode send.
func (d *Device) Ssend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	r, err := d.isend(buf, dst, tag, context, true)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	return err
}

// deliverSelf routes a send whose destination is this process through
// the matching engine without touching the network.
func (d *Device) deliverSelf(buf *mpjbuf.Buffer, tag, context int, sync bool, sreq *devcore.Request) {
	env := match.Concrete{Ctx: int32(context), Tag: int32(tag), Src: uint64(d.cfg.Rank)}
	st := xdev.Status{Source: d.self, Tag: tag, Bytes: buf.WireLen()}
	d.core.Counters.EagerSent.Add(1)
	d.core.Counters.BytesSent.Add(uint64(buf.WireLen()))

	var seq uint64
	if d.rec.Enabled() || d.core.ReplayActive() {
		seq = d.core.NextSeqSend(uint64(d.cfg.Rank), int32(context), int32(tag))
		sreq.SetSeq(seq)
	}
	if d.core.ReplayActive() {
		sreq.SetReplayID(int64(d.cfg.Rank), int32(tag), int32(context), seq)
	}
	arr := &devcore.Arrival{
		Src: uint64(d.cfg.Rank), Tag: int32(tag), Ctx: int32(context),
		Seq: seq, WireLen: buf.WireLen(), Data: devcore.WireCopy(buf),
	}
	if sync {
		arr.SyncReq = sreq
	}
	rreq, matched, err := d.core.MatchOrPark(env, arr)
	if err != nil {
		// Shutdown or abort raced the isend gate: nothing parked, so the
		// sender completes with the failure instead of hanging.
		devcore.PutSlice(arr.Data)
		if ferr := d.opErr("isend"); ferr != nil {
			err = ferr
		}
		sreq.Complete(xdev.Status{}, err)
		return
	}
	if matched {
		loadErr := rreq.Buf.LoadWire(arr.Data)
		devcore.PutSlice(arr.Data)
		rreq.Complete(st, loadErr)
		sreq.Complete(st, nil)
		return
	}
	if !sync {
		sreq.Complete(st, nil)
	}
}

func (d *Device) pattern(src xdev.ProcessID, tag, context int) (match.Pattern, error) {
	p := match.Pattern{Ctx: int32(context)}
	if tag == xdev.AnyTag {
		p.Tag = match.AnyTag
	} else {
		p.Tag = int32(tag)
	}
	if src.IsAnySource() {
		p.Src = match.AnySource
	} else {
		slot, err := d.slotOf(src)
		if err != nil {
			return p, err
		}
		p.Src = uint64(slot)
	}
	return p, nil
}

// IRecv posts a non-blocking receive (paper Figs. 4 and 7). If an
// unexpected message already matches, it is consumed immediately;
// otherwise the request joins the pending-recv-request-set.
//
// A receive pinned to a peer already known dead fails fast with the
// peer's death error — unless a matching message arrived before the
// peer died, which is still delivered. ANY_SOURCE receives stay posted
// as long as any peer could satisfy them.
func (d *Device) IRecv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Request, error) {
	if err := d.opErr("irecv"); err != nil {
		return nil, err
	}
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return nil, err
	}
	req := d.core.NewRequest(devcore.RecvReq, buf)
	req.OpCtx = int32(context)
	if d.rec.Enabled() {
		peer := int32(-1)
		if !src.IsAnySource() {
			peer = int32(p.Src)
		}
		req.Trace(peer, int32(tag), int32(context))
		d.rec.Event(mpe.RecvPosted, peer, int32(tag), int32(context), 0)
	}
	if err := d.irecvReq(req, p); err != nil {
		return nil, err
	}
	return req, nil
}

// irecvReq is the post-creation half of IRecv: it posts req under the
// pattern, or consumes a matching parked arrival — answering a
// rendezvous announcement with READY_TO_RECV, or delivering a buffered
// eager payload. A nil return means the request's lifecycle is now in
// the core's hands (posted, or already completed, possibly with a
// recorded failure); a non-nil return means nothing happened to req
// (devcore.ErrClaimed: a dual-posted request was won by the other core
// first).
func (d *Device) irecvReq(req *devcore.Request, p match.Pattern) error {
	buf := req.Buf
	arr, err := d.core.PostRecv(p, req, nil)
	if err != nil {
		return err
	}
	if arr == nil {
		return nil // posted; an arrival or drain completes it
	}
	if arr.Rndv {
		// Rendezvous announced but unmatched until now: the user thread
		// (not the input handler) sends READY_TO_RECV, per Fig. 7.
		k := devcore.PendingKey{Peer: arr.Src, Seq: arr.Seq}
		req.RndvLen = arr.WireLen
		if err := d.rndvIncoming.Add(k, req); err != nil {
			// The announcing peer died (or the device closed) between the
			// match and the registration; fail the receive the same way
			// the drain would have.
			req.Complete(xdev.Status{}, err)
			return nil
		}
		h := header{typ: msgRTR, src: uint32(d.cfg.Rank), seq: arr.Seq}
		if err := d.send(int(arr.Src), h, nil, nil, xdev.Status{}, false); err != nil {
			if _, mine := d.rndvIncoming.Take(k); !mine {
				return nil // completed by the peer-death drain
			}
			req.Complete(xdev.Status{}, &xdev.Error{Dev: DeviceName, Op: "rendezvous RTR", Err: err})
			return nil
		}
		if d.rec.Enabled() {
			d.rec.EventSeq(mpe.RendezvousRTR, int32(arr.Src), arr.Tag, arr.Ctx, int64(arr.WireLen), arr.Seq)
		}
		return nil
	}

	// Buffered eager message: copy from the device-level input buffer
	// into the user buffer (Fig. 4), recycling the staging slice.
	st := xdev.Status{Source: d.pids[arr.Src], Tag: int(arr.Tag), Bytes: arr.WireLen}
	loadErr := buf.LoadWire(arr.Data)
	devcore.PutSlice(arr.Data)
	arr.Data = nil
	switch {
	case arr.SyncReq != nil:
		arr.SyncReq.Complete(st, nil) // self synchronous sender
	case arr.Sync:
		h := header{typ: msgAck, src: uint32(d.cfg.Rank), seq: arr.Seq}
		if err := d.send(int(arr.Src), h, nil, nil, xdev.Status{}, false); err != nil {
			req.Complete(st, err)
			return nil
		}
	}
	req.Complete(st, loadErr)
	return nil
}

// PostRecvReq posts a receive on an externally created request — the
// composition hook hybriddev uses to dual-post one ANY_SOURCE request
// into this device and its shared-memory sibling. The caller owns
// request creation and tracing; rendezvous and eager delivery behave
// exactly as in IRecv. Returns devcore.ErrClaimed when the sibling
// core won the request before this device could act (req untouched).
func (d *Device) PostRecvReq(req *devcore.Request, src xdev.ProcessID, tag, context int) error {
	if err := d.opErr("irecv"); err != nil {
		return err
	}
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return err
	}
	req.OpCtx = int32(context)
	return d.irecvReq(req, p)
}

// Core exposes the device's progress core for composition (hybriddev's
// shared completion queue and notification hooks).
func (d *Device) Core() *devcore.Core { return d.core }

// Recv blocks until a matching message has been received.
func (d *Device) Recv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	r, err := d.IRecv(buf, src, tag, context)
	if err != nil {
		return xdev.Status{}, err
	}
	return r.Wait()
}

// IProbe checks for a matching available message without receiving it.
func (d *Device) IProbe(src xdev.ProcessID, tag, context int) (xdev.Status, bool, error) {
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return xdev.Status{}, false, err
	}
	arr, err := d.core.IProbe(p, "iprobe")
	if err != nil {
		return xdev.Status{}, false, err
	}
	if arr == nil {
		return xdev.Status{}, false, nil
	}
	return xdev.Status{Source: d.pids[arr.Src], Tag: int(arr.Tag), Bytes: arr.WireLen}, true, nil
}

// Probe blocks until a matching message is available. It fails instead
// of blocking forever when the device closes, the job aborts, or a
// pinned source dies with no buffered match left.
func (d *Device) Probe(src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	p, err := d.pattern(src, tag, context)
	if err != nil {
		return xdev.Status{}, err
	}
	arr, err := d.core.Probe(p, "probe")
	if err != nil {
		return xdev.Status{}, err
	}
	return xdev.Status{Source: d.pids[arr.Src], Tag: int(arr.Tag), Bytes: arr.WireLen}, nil
}

// inputHandler is the progress engine for the connection to peer slot
// src, reading what src writes. It mirrors the paper's input-handler
// pseudocode (Figs. 5 and 8): it must never block on anything except
// reading its connection, so every frame it sends — ACK, RTR,
// rendezvous data, a forwarded revoke — is queued for a writer
// goroutine (send.go).
//
// When the loop exits on an error while the device is still live, the
// peer is declared dead: its pending requests fail with ErrPeerLost
// and blocked waiters wake (the failure-detection half of the device).
// markPeerDead poisons the queue before it closes the connection, so
// queued frames fail with the death error. After a bye the connection
// is left to shutdown (see markPeerGone).
func (d *Device) inputHandler(conn net.Conn, src uint32) {
	// Inbound frames are read through a buffered reader sized to the
	// sender's batch cap: a coalesced batch from the peer arrives
	// in one (or few) bulk reads instead of two reads per frame, the
	// receive-side mirror of the vectored batch write. Payload reads at
	// or above the buffer size bypass it (bufio passes large reads
	// straight through when its buffer is empty), so rendezvous bulk
	// data still streams zero-copy into user buffers.
	br := &bulkReader{Reader: bufio.NewReaderSize(conn, 64<<10)}
	if e, ok := conn.(interface{ Expect(n int) }); ok {
		br.expect = e.Expect
	}
	err := d.readLoop(br, src)
	if err != nil && !d.closed.Load() {
		d.markPeerDead(int(src), err)
	}
}

// bulkReader is an input handler's buffered view of its connection,
// with the transport's bulk-payload hint when it has one (transport.TCP
// does: a reader told how much is coming is woken per 256 KiB instead of
// every few segments; DESIGN.md §7).
type bulkReader struct {
	*bufio.Reader
	expect func(n int)
}

func (d *Device) readLoop(conn io.Reader, src uint32) error {
	hdr := make([]byte, headerLen)
	br, _ := conn.(*bulkReader)
	// cr checksums every payload as it is read, whether into a user
	// buffer or a staging slice.
	cr := &crcReader{r: conn}
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return err // connection closed (Finish, abort, or peer exit)
		}
		if err := verifyHeader(hdr); err != nil {
			d.noteCorrupt(src)
			return err
		}
		h := decodeHeader(hdr)
		if h.src != src {
			// Every frame names its sender, and a connection carries one
			// sender's frames: anything else would index past the rank
			// table below.
			return d.badFrame(src, "frame from slot %d on slot %d's connection", h.src, src)
		}
		var woke bool
		var err error
		switch h.typ {
		case msgEager, msgEagerSync:
			if h.wireLen > uint64(d.eagerLimit) {
				// Checked before the length sizes a staging slice.
				return d.badFrame(src, "eager frame of %d bytes exceeds the eager limit %d", h.wireLen, d.eagerLimit)
			}
			woke, err = d.handleEager(h, cr)
		case msgRTS:
			d.handleRTS(h)
		case msgRTR:
			d.handleRTR(h)
		case msgRndvData:
			woke, err = d.handleRndvData(h, cr)
		case msgAck:
			woke = d.handleAck(h)
		case msgAbort:
			d.handleAbort(h)
			return nil // device is tearing down; the conn is closing
		case msgRevoke:
			d.handleRevoke(h)
		case msgBye:
			// Graceful departure: the peer finished cleanly. Requests
			// pinned on it fail the same way as on a crash (it can no
			// longer complete anything), but this is not a failure —
			// no PeersLost accounting.
			d.markPeerGone(int(src), fmt.Errorf("niodev: peer %d finished", src), true)
			return nil
		default:
			// Protocol error: drop the connection.
			return d.badFrame(src, "unknown message type %d", h.typ)
		}
		if err != nil {
			return err
		}
		if woke && br != nil && br.Buffered() == 0 {
			// The frame woke a parked waiter and the next step is a read
			// that will most likely find nothing: let the woken goroutine
			// run (and write its reply) first. Within a buffered batch the
			// handler keeps draining (DESIGN.md §3).
			runtime.Gosched()
		}
	}
}

// badFrame counts and returns the typed error for a frame whose header
// fields cannot be right, rejected before anything is allocated or read
// on their strength.
func (d *Device) badFrame(src uint32, format string, args ...any) error {
	d.noteCorrupt(src)
	return fmt.Errorf("niodev: "+format+": %w", append(args, xdev.ErrCorruptFrame)...)
}

// noteCorrupt records a frame rejected by the integrity check.
func (d *Device) noteCorrupt(src uint32) {
	d.core.Counters.FramesCorrupt.Add(1)
	if d.rec.Enabled() {
		d.rec.Event(mpe.FrameCorrupt, int32(src), -1, -1, 0)
	}
}

// checkPayload verifies the CRC cr summed over h's payload, once a read
// of it through cr ended with err, counting a mismatch as a corrupt frame.
func (d *Device) checkPayload(cr *crcReader, h header, err error) error {
	if err != nil {
		// A corrupt payload can fail to parse before it is all read: the
		// rest decides between corruption and a stream or format error.
		if _, rerr := io.CopyN(io.Discard, cr, int64(h.wireLen)-cr.n); rerr != nil {
			return err
		}
	}
	if cr.sum != h.payCRC {
		d.noteCorrupt(h.src)
		return fmt.Errorf("niodev: payload checksum mismatch (got %#x want %#x): %w",
			cr.sum, h.payCRC, xdev.ErrCorruptFrame)
	}
	return err
}

// recvInto streams h's payload through the connection's crcReader cr
// straight into buf (Fig. 5's receive into the user buffer), so even the
// zero-copy path is integrity checked.
func (d *Device) recvInto(buf *mpjbuf.Buffer, h header, cr *crcReader) error {
	cr.sum, cr.n = 0, 0
	return d.checkPayload(cr, h, buf.LoadWireFrom(cr, int(h.wireLen)))
}

// handleEager, handleRndvData and handleAck report whether completing
// the frame's request woke a waiter parked on it.
func (d *Device) handleEager(h header, cr *crcReader) (bool, error) {
	env := match.Concrete{Ctx: h.ctx, Tag: h.tag, Src: uint64(h.src)}
	st := xdev.Status{Source: d.pids[h.src], Tag: int(h.tag), Bytes: int(h.wireLen)}

	if req, ok := d.core.MatchPosted(env, h.seq); ok {
		// Matched: receive directly into the user buffer.
		err := d.recvInto(req.Buf, h, cr)
		if err != nil {
			// Torn or corrupt frame: the peer is about to be declared
			// dead (the read loop exits on the returned error), so this
			// receive fails in the same peer-lost shape.
			err = d.peerLost(int(h.src), err)
		} else if h.typ == msgEagerSync {
			// The matched-sync ACK is queued, never written here: it joins
			// the batch of whoever writes to h.src next.
			if ackErr := d.send(int(h.src), header{typ: msgAck, src: uint32(d.cfg.Rank), seq: h.seq}, nil, nil, xdev.Status{}, false); ackErr != nil {
				err = ackErr
			}
		}
		return req.Complete(st, err), err
	}
	// Unmatched: receive into a pooled device input buffer (the eager
	// protocol's unlimited-device-memory assumption). The core lock is
	// not held across the network read — other connections' matching
	// must proceed while this payload drains — so MatchOrPark retries
	// the match afterwards in case a receive was posted meanwhile.
	data := devcore.GetSlice(int(h.wireLen))
	cr.sum, cr.n = 0, 0
	_, err := io.ReadFull(cr, data)
	if err = d.checkPayload(cr, h, err); err != nil {
		devcore.PutSlice(data)
		return false, err
	}
	arr := &devcore.Arrival{
		Src: uint64(h.src), Tag: h.tag, Ctx: h.ctx, Seq: h.seq,
		WireLen: int(h.wireLen), Sync: h.typ == msgEagerSync, Data: data,
	}
	req, matched, err := d.core.MatchOrPark(env, arr)
	if err != nil {
		// Device closing: drop the message; the sender learns of our
		// departure through its own failure detection.
		devcore.PutSlice(data)
		return false, nil
	}
	if !matched {
		return false, nil
	}
	loadErr := req.Buf.LoadWire(data)
	devcore.PutSlice(data)
	if h.typ == msgEagerSync {
		ackErr := d.send(int(h.src), header{typ: msgAck, src: uint32(d.cfg.Rank), seq: h.seq}, nil, nil, xdev.Status{}, false)
		if loadErr == nil {
			loadErr = ackErr
		}
	}
	return req.Complete(st, loadErr), nil
}

func (d *Device) handleRTS(h header) {
	env := match.Concrete{Ctx: h.ctx, Tag: h.tag, Src: uint64(h.src)}
	arr := &devcore.Arrival{
		Src: uint64(h.src), Tag: h.tag, Ctx: h.ctx, Seq: h.seq,
		WireLen: int(h.wireLen), Rndv: true,
	}
	req, matched, err := d.core.MatchOrPark(env, arr)
	if err != nil {
		return // closing; the announcing sender fails via peer death
	}
	if !matched {
		return // parked; a future receive answers the RTS
	}
	// Matched: the input handler answers READY_TO_RECV (Fig. 8).
	k := devcore.PendingKey{Peer: uint64(h.src), Seq: h.seq}
	req.RndvLen = int(h.wireLen)
	if err := d.rndvIncoming.Add(k, req); err != nil {
		req.Complete(xdev.Status{}, err)
		return
	}
	if err := d.send(int(h.src), header{typ: msgRTR, src: uint32(d.cfg.Rank), seq: h.seq}, nil, nil, xdev.Status{}, false); err != nil {
		if _, mine := d.rndvIncoming.Take(k); mine {
			req.Complete(xdev.Status{}, err)
		}
		return
	}
	if d.rec.Enabled() {
		d.rec.EventSeq(mpe.RendezvousRTR, int32(h.src), h.tag, h.ctx, int64(h.wireLen), h.seq)
	}
}

func (d *Device) handleRTR(h header) {
	req, ok := d.pendingRndv.Take(devcore.PendingKey{Peer: uint64(h.src), Seq: h.seq})
	if !ok {
		return // duplicate, or drained by peer death / shutdown
	}
	if !req.RndvStep() {
		return // the sending thread is still checksumming; it posts the payload
	}
	// Queue the payload without writing it: the input handler must not
	// block on a bulk write, or two processes simultaneously sending
	// large messages to each other could deadlock (paper §IV-A.2). The
	// current writer to h.src, or a flusher started for it (the paper's
	// forked rendezvous writer), carries the frame and completes req.
	var segs [4][]byte
	d.postRndvData(int(h.src), req, h.seq, req.Buf.AppendSegments(segs[:0]), false)
}

func (d *Device) handleRndvData(h header, cr *crcReader) (bool, error) {
	req, ok := d.rndvIncoming.Take(devcore.PendingKey{Peer: uint64(h.src), Seq: h.seq})
	if !ok {
		// Protocol violation: data for an unknown rendezvous.
		return false, d.badFrame(h.src, "rendezvous data for unknown seq %d", h.seq)
	}
	var err error
	if h.wireLen != uint64(req.RndvLen) {
		err = d.badFrame(h.src, "rendezvous data of %d bytes for an announcement of %d", h.wireLen, req.RndvLen)
	} else {
		if br, ok := cr.r.(*bulkReader); ok && br.expect != nil {
			// The announced length was just checked against the RTS, so
			// these bytes are on their way.
			br.expect(int(h.wireLen) - br.Buffered())
		}
		err = d.recvInto(req.Buf, h, cr)
	}
	if err != nil {
		// The rendezvous data stream died, failed its checksum or broke
		// its announcement: the read loop exits on the returned error and
		// declares the peer dead, so the waiting receive fails in the
		// same shape.
		err = d.peerLost(int(h.src), err)
	}
	return req.Complete(xdev.Status{Source: d.pids[h.src], Tag: int(h.tag), Bytes: int(h.wireLen)}, err), err
}

func (d *Device) handleAck(h header) bool {
	req, ok := d.pendingSync.Take(devcore.PendingKey{Peer: uint64(h.src), Seq: h.seq})
	if !ok {
		return false
	}
	return req.Complete(xdev.Status{Source: d.self, Bytes: req.Buf.WireLen()}, nil)
}

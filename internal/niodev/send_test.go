package niodev

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/devcore"
	"mpj/internal/mpjbuf"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// gate wedges a device's connection to one peer: once wedged, writes on
// it block until the gate opens or the connection is closed — a peer
// that has stopped reading, produced without reaching into the peer.
// Reads are untouched, so the wedged rank still hears its peer.
type gate struct {
	release chan struct{}
	once    sync.Once
	// entered is closed when the first write reaches the gate.
	entered   chan struct{}
	enterOnce sync.Once
}

func newGate() *gate { return &gate{release: make(chan struct{}), entered: make(chan struct{})} }

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// wedge routes d's writes to slot through the gate. The input handler
// reads through its own reference to the connection, which stays bare.
func (g *gate) wedge(d *Device, slot int) {
	q := d.queues[slot]
	q.mu.Lock()
	q.conn = &gatedConn{Conn: q.conn, g: g, closed: make(chan struct{})}
	q.mu.Unlock()
}

type gatedConn struct {
	net.Conn
	g      *gate
	closed chan struct{}
	once   sync.Once
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.g.enterOnce.Do(func() { close(c.g.entered) })
	select {
	case <-c.g.release:
	case <-c.closed:
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

func (c *gatedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// queued reports how many frames wait in slot's queue.
func (d *Device) queued(slot int) int {
	q := d.queues[slot]
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.frames) - q.head
}

// queuedBytes reports the header and payload bytes waiting in slot's
// queue.
func (d *Device) queuedBytes(slot int) int {
	q := d.queues[slot]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// waitUntil polls cond for up to 10 s and reports whether it came true,
// failing the test if not.
func waitUntil(t *testing.T, what string, cond func() bool) bool {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return false
		}
	}
	return true
}

// writerHeld reports whether a writer holds slot's queue.
func (d *Device) writerHeld(slot int) bool {
	q := d.queues[slot]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.writing
}

// TestPeerQueueBatchOrder checks the queue's FIFO contract: frames
// posted while another writer holds the role are taken in post order, up
// to the batch cap.
func TestPeerQueueBatchOrder(t *testing.T) {
	d := bareDevice()
	q := d.queues[1]
	q.writing = true // a writer is busy: posts only append
	const n = maxBatchFrames + 3
	for i := 0; i < n; i++ {
		if err := d.send(1, header{typ: msgEager, tag: int32(i)}, nil, nil, xdev.Status{}, true); err != nil {
			t.Fatal(err)
		}
	}
	first := q.take()
	if len(first) != maxBatchFrames {
		t.Fatalf("first batch has %d frames, want the cap %d", len(first), maxBatchFrames)
	}
	rest := q.take()
	if len(rest) != n-maxBatchFrames {
		t.Fatalf("second batch has %d frames, want %d", len(rest), n-maxBatchFrames)
	}
	for i, f := range append(append([]*sendFrame(nil), first...), rest...) {
		if tag := decodeHeader(f.hdr).tag; tag != int32(i) {
			t.Fatalf("frame %d carries tag %d: out of order", i, tag)
		}
	}
	if d.queued(1) != 0 {
		t.Fatalf("%d frames left after taking everything", d.queued(1))
	}
}

// TestPeerQueuePoisonWakesBlockedEnqueuer is the failure contract at the
// queue level: a sender whose frame waits behind a wedged writer must
// wake with the peer's death error when the peer dies, queued frames
// must be failed rather than dropped, and later sends must fail fast.
// The payload is stageSegMax or larger, so the frame is not buffered.
func TestPeerQueuePoisonWakesBlockedEnqueuer(t *testing.T) {
	d := bareDevice()
	d.queues[1].writing = true // the wedged writer
	req := d.core.NewRequest(devcore.SendReq, mpjbuf.New(0))
	if err := d.send(1, header{typ: msgEager}, [][]byte{make([]byte, 8<<10)}, req, xdev.Status{}, true); err != nil {
		t.Fatal(err)
	}
	woke := make(chan error, 1)
	go func() {
		_, err := req.Wait()
		woke <- err
	}()
	dead := errors.New("peer dead")
	d.markPeerDead(1, dead)
	select {
	case err := <-woke:
		if !errors.Is(err, dead) || !errors.Is(err, xdev.ErrPeerLost) {
			t.Fatalf("queued sender woke with %v, want the peer's death error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued sender never woke after peer death")
	}
	if d.queued(1) != 0 {
		t.Fatalf("%d frames still queued after poison", d.queued(1))
	}
	if err := d.send(1, header{typ: msgAck}, nil, nil, xdev.Status{}, false); !errors.Is(err, dead) {
		t.Fatalf("post-poison send: %v, want the poison error", err)
	}
}

// TestPeerQueueBufferedUpToBatchBytes is the buffered side of the same
// contract: behind a wedged writer, small eager sends complete at once
// until the queued bytes reach maxBatchBytes; the next send waits for
// the wire and wakes with the peer's death error; poison drops the
// buffered frames and hands their payload copies back to the byte
// store; later sends fail fast.
func TestPeerQueueBufferedUpToBatchBytes(t *testing.T) {
	const payload = 1000 // its copy is the only slab of capacity ownCap
	slab := mpjbuf.GetBytes(payload)
	ownCap := cap(slab)
	mpjbuf.PutBytes(slab)
	var drawn atomic.Int64
	mpjbuf.SetProbe(&mpjbuf.Probe{Store: func(capacity, d int) {
		if capacity == ownCap {
			drawn.Add(int64(d))
		}
	}})
	defer mpjbuf.SetProbe(nil)

	d := bareDevice()
	q := d.queues[1]
	q.writing = true // the wedged writer
	seg := [][]byte{make([]byte, payload)}
	h := header{typ: msgEager, wireLen: payload}
	post := func() *devcore.Request {
		req := d.core.NewRequest(devcore.SendReq, mpjbuf.New(0))
		if err := d.send(1, h, seg, req, xdev.Status{}, true); err != nil {
			t.Fatal(err)
		}
		return req
	}
	buffered := 0
	for q.queued < maxBatchBytes {
		req := post()
		if _, done, err := req.Test(); !done || err != nil {
			t.Fatalf("send %d with %d bytes queued: done=%v err=%v, want buffered", buffered, q.queued, done, err)
		}
		buffered++
	}
	if want := (maxBatchBytes + headerLen + payload - 1) / (headerLen + payload); buffered != want {
		t.Errorf("%d sends buffered, want %d (maxBatchBytes of frames)", buffered, want)
	}
	if n := drawn.Load(); n != int64(buffered) {
		t.Errorf("%d payload copies drawn, want one per buffered send (%d)", n, buffered)
	}

	blocked := post()
	if blocked.Done() {
		t.Fatal("a send past maxBatchBytes completed before reaching the wire")
	}
	woke := make(chan error, 1)
	go func() {
		_, err := blocked.Wait()
		woke <- err
	}()
	dead := errors.New("peer dead")
	d.markPeerDead(1, dead)
	select {
	case err := <-woke:
		if !errors.Is(err, dead) || !errors.Is(err, xdev.ErrPeerLost) {
			t.Fatalf("blocked sender woke with %v, want the peer's death error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked sender never woke after peer death")
	}
	if d.queued(1) != 0 || q.queued != 0 {
		t.Fatalf("%d frames / %d bytes still queued after poison", d.queued(1), q.queued)
	}
	if n := drawn.Load(); n != 0 {
		t.Errorf("%d payload copies not returned to the byte store after poison", n)
	}
	if err := d.send(1, h, seg, nil, xdev.Status{}, true); !errors.Is(err, dead) {
		t.Fatalf("post-poison send: %v, want the poison error", err)
	}
}

// TestPeerQueueCompacts keeps a queue non-empty for 100k frames — the
// writer always leaves some behind — and checks its backing array stays
// near the live depth instead of growing with every frame ever queued.
func TestPeerQueueCompacts(t *testing.T) {
	d := bareDevice()
	q := d.queues[1]
	q.writing = true
	post := func(n int) {
		for i := 0; i < n; i++ {
			if err := d.send(1, header{typ: msgEager}, nil, nil, xdev.Status{}, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	const live = 100
	post(live)
	for sent := 0; sent < 100_000; sent += maxBatchFrames {
		post(maxBatchFrames)
		batch := q.take()
		completeFrames(batch, nil)
		q.batch = batch[:0]
		if d.queued(1) != live {
			t.Fatalf("%d frames queued, want %d", d.queued(1), live)
		}
	}
	if c := cap(q.frames); c > 4*(live+maxBatchFrames) {
		t.Errorf("cap(frames) = %d with %d frames live: consumed slots are kept", c, live)
	}
}

// TestPeerQueueCloseWithAppendsBehindQueued checks flush-on-finalize at
// the queue level: the closing frame (Finish's bye) must come out
// *after* everything already queued.
func TestPeerQueueCloseWithAppendsBehindQueued(t *testing.T) {
	d := bareDevice()
	q := d.queues[1]
	q.writing = true
	if err := d.send(1, header{typ: msgEager}, nil, nil, xdev.Status{}, true); err != nil {
		t.Fatal(err)
	}
	d.broadcast(header{typ: msgBye}, -1, 0)
	batch := q.take()
	if len(batch) != 2 || batch[0].hdr[0] != msgEager || batch[1].hdr[0] != msgBye {
		t.Fatalf("closing batch = %d frames, want [data, bye] in order", len(batch))
	}
	completeFrames(batch, nil)
}

// TestSendEngineFlushOnFinish checks flush-on-finalize end to end:
// frames queued (not yet written) when Finish is called must all reach
// the peer ahead of the goodbye — no frame left queued.
func TestSendEngineFlushOnFinish(t *testing.T) {
	const n = 64
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			for i := 0; i < n; i++ {
				buf := mpjbuf.New(16)
				buf.WriteInts([]int32{int32(i)}, 0, 1)
				// ISend without Wait: completion rides the frame.
				if _, err := d.ISend(buf, pids[1], 5, 0); err != nil {
					t.Errorf("isend %d: %v", i, err)
					return
				}
			}
			// Finish with frames possibly still queued: the bye must go
			// out behind them.
			d.Finish()
			return
		}
		for i := 0; i < n; i++ {
			got := recvInts(t, d, pids[0], 5, 1)
			if len(got) != 1 || got[0] != int32(i) {
				t.Errorf("recv %d: got %v, want [%d]", i, got, i)
				return
			}
		}
		// The departure must have been graceful: a flushed goodbye, not
		// a connection error.
		deadline := time.Now().Add(5 * time.Second)
		for d.peerErr(0) == nil {
			if time.Now().After(deadline) {
				t.Error("rank 1 never saw rank 0's goodbye")
				return
			}
			time.Sleep(time.Millisecond)
		}
		if d.Stats().PeersLost != 0 {
			t.Error("graceful goodbye was counted as a peer loss")
		}
	})
}

// TestSendEngineBlockedEnqueueWokenByPeerDeath checks failure end to
// end: with the connection to the peer wedged, one sender blocks in the
// write and the others, whose payloads are too big to buffer, wait
// behind it; all must wake with ErrPeerLost when the peer is declared
// dead. The first sender is in the wedged write before the others
// start, so its batch carries its own frame only.
func TestSendEngineBlockedEnqueueWokenByPeerDeath(t *testing.T) {
	g := newGate()
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank != 0 {
			return // rank 1 just exists to be declared dead
		}
		g.wedge(d, 1)
		const senders = 3
		errsCh := make(chan error, senders)
		send := func() {
			buf := mpjbuf.New(0)
			buf.WriteBytes(make([]byte, 8<<10), 0, 8<<10) // too big to buffer
			errsCh <- d.Send(buf, pids[1], 9, 0)
		}
		go send()
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Error("the first sender never reached the wedged write")
			return
		}
		for i := 1; i < senders; i++ {
			go send()
		}
		if !waitUntil(t, "two senders to queue behind the wedged write", func() bool { return d.queued(1) == senders-1 }) {
			return
		}
		d.markPeerDead(1, errors.New("test: simulated peer failure"))
		for i := 0; i < senders; i++ {
			select {
			case err := <-errsCh:
				if !errors.Is(err, xdev.ErrPeerLost) {
					t.Errorf("sender %d: %v, want ErrPeerLost", i, err)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("sender %d still blocked after peer death", i)
				return
			}
		}
	})
}

// TestSendEngineBufferedBehindWedgedWriter is its buffered sibling: with
// one sender blocked in a wedged write, small sends return at once until
// maxBatchBytes are queued; the next one blocks, and both blocked
// senders wake with ErrPeerLost when the peer is declared dead; later
// sends fail fast.
func TestSendEngineBufferedBehindWedgedWriter(t *testing.T) {
	g := newGate()
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank != 0 {
			return // rank 1 just exists to be declared dead
		}
		g.wedge(d, 1)
		small := func() *mpjbuf.Buffer {
			buf := mpjbuf.New(0)
			buf.WriteBytes(make([]byte, 512), 0, 512)
			return buf
		}
		errsCh := make(chan error, 2)
		go func() { errsCh <- d.Send(small(), pids[1], 9, 0) }() // takes the role, wedges
		if !waitUntil(t, "the first sender to take the writer role", func() bool { return d.writerHeld(1) }) {
			return
		}
		for buffered := 0; d.queuedBytes(1) < maxBatchBytes; buffered++ {
			if err := d.Send(small(), pids[1], 9, 0); err != nil {
				t.Errorf("buffered send %d: %v", buffered, err)
				return
			}
		}
		depth := d.queued(1)
		go func() { errsCh <- d.Send(small(), pids[1], 9, 0) }() // over the bound: waits
		if !waitUntil(t, "the send over the bound to queue", func() bool { return d.queued(1) > depth }) {
			return
		}
		select {
		case err := <-errsCh:
			t.Errorf("a sender returned %v before the peer died", err)
		case <-time.After(50 * time.Millisecond):
		}
		d.markPeerDead(1, errors.New("test: simulated peer failure"))
		for i := 0; i < 2; i++ {
			select {
			case err := <-errsCh:
				if !errors.Is(err, xdev.ErrPeerLost) {
					t.Errorf("blocked sender %d: %v, want ErrPeerLost", i, err)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("blocked sender %d still waiting after peer death", i)
				return
			}
		}
		if err := d.Send(small(), pids[1], 9, 0); !errors.Is(err, xdev.ErrPeerLost) {
			t.Errorf("send after peer death: %v, want ErrPeerLost", err)
		}
	})
}

// TestSendEngineBufferedSendOwnsPayload: a buffered send has returned
// the sender's buffer, so the sender may overwrite it at once; the
// receiver must still get the bytes as they were at Send. The writer is
// wedged while the sends are buffered, so every one of them is.
func TestSendEngineBufferedSendOwnsPayload(t *testing.T) {
	const msgs, size = 32, 512
	g := newGate()
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 1 {
			out := make([]byte, size)
			for i := 0; i <= msgs; i++ {
				buf := mpjbuf.New(0)
				if _, err := d.Recv(buf, pids[0], 3, 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := buf.ReadBytes(out, 0, size); err != nil {
					t.Error(err)
					return
				}
				for j, b := range out {
					if b != byte(i) {
						t.Errorf("message %d byte %d = %#x, want %#x: the sender's later write leaked in", i, j, b, byte(i))
						return
					}
				}
			}
			return
		}
		g.wedge(d, 1)
		src := make([]byte, size)
		buf := mpjbuf.New(0)
		fill := func(i int) {
			for j := range src {
				src[j] = byte(i)
			}
			buf.Reset()
			buf.WriteBytes(src, 0, size)
		}
		first := mpjbuf.New(0)
		first.WriteBytes(src, 0, size) // message 0
		wedged := make(chan error, 1)
		go func() { wedged <- d.Send(first, pids[1], 3, 0) }()
		if !waitUntil(t, "the first sender to take the writer role", func() bool { return d.writerHeld(1) }) {
			return
		}
		for i := 1; i <= msgs; i++ {
			fill(i)
			if err := d.Send(buf, pids[1], 3, 0); err != nil {
				t.Error(err)
				return
			}
			fill(0xff) // scribble as soon as Send returns
		}
		if n := d.queued(1); n != msgs {
			t.Errorf("%d frames queued behind the wedged writer, want %d buffered", n, msgs)
		}
		g.open()
		if err := <-wedged; err != nil {
			t.Error(err)
		}
	})
}

// TestSendEngineManySendersOnePeer is the -race stress for the shared
// queue: many goroutines funnel into one peer; per-(src,dst) order must
// hold within each sender's tag stream, and every message must arrive
// exactly once. Payloads cycle through 4 B and wire lengths of 4095 and
// 4096 B, so frames buffered at post (under stageSegMax) and frames
// written from the sender's buffer interleave in one queue.
func TestSendEngineManySendersOnePeer(t *testing.T) {
	const senders = 8
	msgs := 200
	if testing.Short() {
		msgs = 50
	}
	one := mpjbuf.New(0)
	one.WriteBytes([]byte{0}, 0, 1)
	overhead := one.WireLen() - 1 // wire and section headers
	sizes := []int{4, stageSegMax - 1 - overhead, stageSegMax - overhead}
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					payload := make([]byte, sizes[len(sizes)-1])
					for i := 0; i < msgs; i++ {
						n := sizes[i%len(sizes)]
						binary.LittleEndian.PutUint32(payload, uint32(i))
						buf := mpjbuf.New(0)
						buf.WriteBytes(payload, 0, n)
						if buf.WireLen() != overhead+n {
							t.Errorf("message %d: wire length %d, want %d", i, buf.WireLen(), overhead+n)
						}
						if err := d.Send(buf, pids[1], 100+s, 0); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			return
		}
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				out := make([]byte, sizes[len(sizes)-1])
				for i := 0; i < msgs; i++ {
					buf := mpjbuf.New(0)
					if _, err := d.Recv(buf, pids[0], 100+s, 0); err != nil {
						t.Errorf("recv: %v", err)
						return
					}
					n := sizes[i%len(sizes)]
					if _, err := buf.ReadBytes(out, 0, n); err != nil {
						t.Errorf("tag %d msg %d: %v", 100+s, i, err)
						return
					}
					if got := binary.LittleEndian.Uint32(out); got != uint32(i) {
						t.Errorf("tag %d msg %d: got message %d (ordering violated)", 100+s, i, got)
						return
					}
				}
			}(s)
		}
		wg.Wait()
	})
}

// TestSendCountersMatchFramesSent pins the batch counters: every frame
// written is counted once in FramesCoalesced and its bytes in
// SendBatchBytes, and no batch is empty. bench's frames_per_batch,
// /metrics and mpjtrace -summary read these.
func TestSendCountersMatchFramesSent(t *testing.T) {
	const senders, msgs = 8, 50
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			probe := mpjbuf.New(16)
			probe.WriteInts([]int32{0}, 0, 1)
			frameBytes := uint64(headerLen + probe.WireLen())
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < msgs; i++ {
						sendInts(t, d, pids[1], 100+s, []int32{int32(i)})
					}
				}(s)
			}
			wg.Wait()
			// A buffered Send returns before its frame is written, so
			// read the counters once rank 1 has every frame and the
			// writer, which counts a batch before it lets go of the
			// role, is idle.
			recvInts(t, d, pids[1], 1, 1)
			if !waitUntil(t, "the writer to go idle", func() bool { return !d.writerHeld(1) }) {
				return
			}
			st := d.Stats()
			const frames = senders * msgs
			if st.FramesCoalesced != frames {
				t.Errorf("FramesCoalesced = %d, want the %d frames sent", st.FramesCoalesced, frames)
			}
			if st.SendBatches == 0 || st.SendBatches > frames {
				t.Errorf("SendBatches = %d, want 1..%d", st.SendBatches, frames)
			}
			if st.SendBatchBytes != frames*frameBytes {
				t.Errorf("SendBatchBytes = %d, want %d", st.SendBatchBytes, frames*frameBytes)
			}
			intro := d.Introspect().(introspection)
			if len(intro.Peers) != 1 || !intro.Peers[0].Connected || intro.Peers[0].SendQueue != 0 || intro.Peers[0].SendQueueBytes != 0 {
				t.Errorf("introspected peers = %+v, want one connected peer with nothing queued", intro.Peers)
			}
			return
		}
		for s := 0; s < senders; s++ {
			for i := 0; i < msgs; i++ {
				recvInts(t, d, pids[0], 100+s, 1)
			}
		}
		sendInts(t, d, pids[0], 1, []int32{1})
	})
}

// TestSendEngineLargeMessages drives the rendezvous path (payload over
// the eager limit): the data frame the RTR releases is queued like any
// other.
func TestSendEngineLargeMessages(t *testing.T) {
	const n = 40_000 // * 4 bytes > 128 KiB default eager limit
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		vals := make([]int32, n)
		if rank == 0 {
			for i := range vals {
				vals[i] = int32(i)
			}
			sendInts(t, d, pids[1], 21, vals)
			if st := d.Stats(); st.RndvSent != 1 {
				t.Errorf("RndvSent = %d, want 1 (message should exceed the eager limit)", st.RndvSent)
			}
			return
		}
		got := recvInts(t, d, pids[0], 21, n)
		for i, v := range got {
			if v != int32(i) {
				t.Fatalf("payload[%d] = %d, want %d", i, v, i)
			}
		}
	})
}

// TestMutualFloodNoDeadlock has two ranks flood each other with
// messages larger than a connection buffers, from two goroutines each,
// with every receive posted: each message's ACK (synchronous eager) or
// RTR (rendezvous) is sent by the receiving input handler while the
// application writers on both sides are blocked on full connections.
// An input handler that waited for such a writer would deadlock both
// ranks — though only when the two sides' writes happen to collide, so
// each subtest floods several times.
func TestMutualFloodNoDeadlock(t *testing.T) {
	transports := []struct {
		name  string
		short bool
		job   func(t *testing.T) xdev.Config
	}{
		{"inproc", true, func(*testing.T) xdev.Config { return xdev.Config{Dialer: transport.NewInProc(0)} }},
		{"tcp", false, func(t *testing.T) xdev.Config {
			addrs, tr := loopbackTCP(t, 2)
			return xdev.Config{Dialer: tr, Addrs: addrs}
		}},
	}
	floods := []struct {
		name  string
		n     int // int32s per message
		ssend bool
	}{
		{"ssend-100KB", 25_000, true},
		{"isend-200KB", 50_000, false},
	}
	for _, tr := range transports {
		for _, fl := range floods {
			t.Run(tr.name+"/"+fl.name, func(t *testing.T) {
				if !tr.short && testing.Short() {
					t.Skip("loopback TCP skipped in -short mode")
				}
				runJob(t, 2, tr.job(t), func(d *Device, rank int, pids []xdev.ProcessID) {
					for round := 0; round < 8; round++ {
						if !mutualFlood(t, d, rank, pids[1-rank], fl.n, fl.ssend) {
							return
						}
					}
				})
			})
		}
	}
}

// mutualFlood is one rank's side of one flood: post 64 receives from
// peer, then send it 64 messages of n int32s from two goroutines. It
// reports false if the flood did not finish within 30 s.
func mutualFlood(t *testing.T, d *Device, rank int, peer xdev.ProcessID, n int, ssend bool) bool {
	const goroutines, perG = 2, 32
	recvs := make([]xdev.Request, 0, goroutines*perG)
	bufs := make([]*mpjbuf.Buffer, 0, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			b := mpjbuf.New(0)
			r, err := d.IRecv(b, peer, g, 0)
			if err != nil {
				t.Error(err)
				return false
			}
			recvs, bufs = append(recvs, r), append(bufs, b)
		}
	}
	// Both sides post every receive before either floods.
	sendInts(t, d, peer, 99, []int32{0})
	recvInts(t, d, peer, 99, 1)

	// Workers report through errs rather than t, so a flood still
	// running when the test gives up cannot fail it afterwards.
	errs := make(chan error, 3*goroutines*perG)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(rank*100 + g)
			}
			send := d.ISend
			if ssend {
				send = d.ISsend
			}
			reqs := make([]xdev.Request, 0, perG)
			for i := 0; i < perG; i++ {
				buf := mpjbuf.New(0)
				buf.WriteInts(vals, 0, n)
				r, err := send(buf, peer, g, 0)
				if err != nil {
					errs <- err
					return
				}
				reqs = append(reqs, r)
			}
			for _, r := range reqs {
				if _, err := r.Wait(); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	go func() {
		wg.Wait()
		for _, r := range recvs {
			if _, err := r.Wait(); err != nil {
				errs <- err
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Errorf("rank %d: mutual flood still running after 30s (deadlock)", rank)
		return false
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	out := make([]int32, n)
	for i, b := range bufs {
		want := int32((1-rank)*100 + i/perG)
		if _, err := b.ReadInts(out, 0, n); err != nil || out[0] != want || out[n-1] != want {
			t.Errorf("rank %d receive %d: got %d..%d, want %d (%v)", rank, i, out[0], out[n-1], want, err)
			return false
		}
	}
	return true
}

// TestRevokeForwardNeverBlocksHandler: the revoke flood is forwarded by
// input handlers, so forwarding must only queue. Rank 0's connection to
// rank 2 is wedged; rank 1 revokes a context and then sends rank 0 an
// eager message, which rank 0's handler for rank 1 must still deliver.
func TestRevokeForwardNeverBlocksHandler(t *testing.T) {
	devs := chaosJob(t, 3, nil)
	g := newGate()
	t.Cleanup(g.open) // runs before chaosJob's Finish
	g.wedge(devs[0], 2)

	if err := devs[1].Revoke(5); err != nil {
		t.Fatal(err)
	}
	if err := chaosSend(devs[1], devs[1].pids[0], 4, []int64{42}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- chaosRecv(devs[0], devs[0].pids[1], 4) }()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rank 0's input handler is stuck forwarding the revoke")
	}
	if devs[0].core.CtxErr(5) == nil {
		t.Error("rank 0 delivered the message but never applied the revoke")
	}
}

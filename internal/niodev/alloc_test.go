package niodev

import (
	"bytes"
	"hash/crc32"
	"io"
	"net"
	"testing"

	"mpj/internal/devcore"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// TestWriteMsgAllocs is the allocation regression guard for the pooled
// frame path: a steady-state send that writes its own frame must not
// allocate for a header-only frame or a staged small payload (pooled
// frame and header, queue-owned batch and staging buffers, one Write),
// and at most once when a large segment is written zero-copy (the
// net.Buffers gather list escapes into WriteTo).
func TestWriteMsgAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts only hold in normal builds")
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go io.Copy(io.Discard, c2)

	d := bareDevice()
	d.queues[1].conn = c1

	for _, c := range []struct {
		name string
		segs [][]byte
		max  float64
	}{
		{"header-only", nil, 0},
		{"small payload", [][]byte{make([]byte, 64)}, 0},
		{"large payload", [][]byte{make([]byte, stageSegMax)}, 1},
	} {
		h := header{typ: msgEager, src: 0, tag: 1}
		for _, s := range c.segs {
			h.wireLen += uint64(len(s))
		}
		send := func() {
			if err := d.send(1, h, c.segs, nil, xdev.Status{}, true); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			send() // warm the slice pools and the queue's buffers
		}
		if n := testing.AllocsPerRun(100, send); n > c.max {
			t.Errorf("%s send allocates %.1f times per call, want <= %.0f", c.name, n, c.max)
		}
	}
}

// TestBufferedPostAllocs: a small eager send that finds the writer role
// held — copied into a pooled slice, queued, its request completed at
// once — allocates nothing in steady state, and neither does the writer
// taking and recycling the frame. The requests are made before the
// count starts.
func TestBufferedPostAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts only hold in normal builds")
	}
	const runs = 100
	d := bareDevice()
	q := d.queues[1]
	q.writing = true
	seg := [][]byte{make([]byte, 512)}
	h := header{typ: msgEager, tag: 1, wireLen: 512}
	reqs := make([]*devcore.Request, 8+runs+1) // warm-up, AllocsPerRun's own call, then runs
	for i := range reqs {
		reqs[i] = d.core.NewRequest(devcore.SendReq, nil)
	}
	next := 0
	post := func() {
		req := reqs[next]
		next++
		if err := d.send(1, h, seg, req, xdev.Status{}, true); err != nil {
			t.Fatal(err)
		}
		if !req.Done() {
			t.Fatal("the send was not buffered")
		}
		batch := q.take()
		completeFrames(batch, nil)
		clear(batch)
		q.batch = batch[:0]
	}
	for i := 0; i < 8; i++ {
		post() // warm the slice pools and the queue's arrays
	}
	if n := testing.AllocsPerRun(runs, post); n != 0 {
		t.Errorf("buffered post allocates %.1f times per send, want 0", n)
	}
}

// The input handler's matched-eager path — match the posted receive,
// stream the payload through the connection's crcReader into the user
// buffer, verify it, complete the request — allocates nothing. The
// receives are posted before the count starts.
func TestMatchedEagerHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts only hold in normal builds")
	}
	const runs = 100
	d := bareDevice()
	var msg mpjbuf.Buffer
	if err := msg.WriteBytes([]byte("8 bytes!"), 0, 8); err != nil {
		t.Fatal(err)
	}
	payload := msg.Wire()
	h := header{typ: msgEager, src: 1, tag: 1, wireLen: uint64(len(payload)),
		payCRC: crc32.Checksum(payload, castagnoli)}
	rd := bytes.NewReader(payload)
	cr := &crcReader{r: rd}
	buf := mpjbuf.New(0)
	reqs := make([]xdev.Request, runs+2) // one warm-up call, AllocsPerRun's own, then runs
	for i := range reqs {
		r, err := d.IRecv(buf, d.pids[1], 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = r
	}
	next := 0
	handle := func() {
		rd.Reset(payload)
		if _, err := d.handleEager(h, cr); err != nil {
			t.Fatal(err)
		}
		if _, done, err := reqs[next].Test(); !done || err != nil {
			t.Fatalf("receive %d: done=%v err=%v", next, done, err)
		}
		next++
	}
	handle()
	if n := testing.AllocsPerRun(runs, handle); n != 0 {
		t.Errorf("matched eager frame allocates %.1f times in the device, want 0", n)
	}
}

// TestRndvSendAllocs pins a whole rendezvous send through the device —
// isend (request, RTS, checksum), READY_TO_RECV at the input handler,
// the data frame posted and written — at rndvSendAllocs allocations,
// the Request itself and the gather list writeBatch hands to WriteTo, in
// both hand-off orders: the RTR before the checksum (the sending thread writes the
// payload) and after it (the handler queues it behind a held writer
// role, whose holder writes it). Both segment lists are built into
// arrays on the stack.
func TestRndvSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts only hold in normal builds")
	}
	const rndvSendAllocs = 2
	large := make([]float64, 1<<17) // 1 MiB: above DefaultEagerLimit
	t.Cleanup(func() { beforeRndvChecksum = func() {} })
	for _, order := range []handoff{rtrFirst, sumFirst} {
		d := bareDevice()
		q := d.queues[1]
		var b mpjbuf.Buffer
		var seq uint64 // isend draws 1, 2, ... on a fresh device
		rtr := func() { d.handleRTR(header{typ: msgRTR, src: 1, seq: seq}) }
		beforeRndvChecksum = func() {}
		if order == rtrFirst {
			beforeRndvChecksum = rtr
		}
		send := func() {
			if err := mpjbuf.Borrow(&b, large, 0, len(large)); err != nil {
				t.Fatal(err)
			}
			seq++
			if order == sumFirst {
				q.writing = true // the handler only queues; the holder below writes
			}
			req, err := d.isend(&b, d.pids[1], 1, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if order == sumFirst {
				rtr()
				d.writeQueued(1, q, 0)
			}
			if !req.Done() {
				t.Fatalf("%v: the send did not complete", order)
			}
			req.Wait()
			b.Reset()
		}
		for i := 0; i < 8; i++ {
			send() // warm the slice pools, the pending set and the queue's buffers
		}
		if n := testing.AllocsPerRun(100, send); n > rndvSendAllocs {
			t.Errorf("%v: rendezvous send allocates %.1f times, want <= %d", order, n, rndvSendAllocs)
		}
	}
}

// TestSendPathMpjbufAllocs pins what a steady-state send asks of mpjbuf
// — pack into a reused buffer (a copied section for an eager message, a
// borrowed one for a rendezvous message), WireLen, the segment list into
// the caller's array as isend and handleRTR build it, Reset — at zero
// allocations: the wire header lives in the Buffer and the list on the
// sender's stack.
func TestSendPathMpjbufAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts only hold in normal builds")
	}
	small := make([]byte, 512)
	large := make([]float64, 1<<17) // 1 MiB: above DefaultEagerLimit
	var b mpjbuf.Buffer
	for name, pack := range map[string]func() error{
		"eager":      func() error { return mpjbuf.Borrow(&b, small, 0, len(small)) },
		"rendezvous": func() error { return mpjbuf.Borrow(&b, large, 0, len(large)) },
	} {
		send := func() {
			if err := pack(); err != nil {
				t.Fatal(err)
			}
			var segs [4][]byte
			wire := 0
			for _, s := range b.AppendSegments(segs[:0]) {
				wire += len(s)
			}
			if wire != b.WireLen() {
				t.Fatalf("segments hold %d bytes, WireLen says %d", wire, b.WireLen())
			}
			b.Reset()
		}
		send() // warm: the eager section's backing is allocated once
		if n := testing.AllocsPerRun(100, send); n != 0 {
			t.Errorf("%s send: mpjbuf allocates %.1f times per message, want 0", name, n)
		}
	}
}

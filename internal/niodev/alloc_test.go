package niodev

import (
	"io"
	"net"
	"sync"
	"testing"

	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// TestWriteMsgAllocs is the allocation regression guard for the pooled
// frame path: steady-state writeMsg must not allocate for header-only
// frames (pooled header, single Write) and at most once for frames
// with payload segments (the net.Buffers gather list escapes into
// WriteTo).
func TestWriteMsgAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts only hold in normal builds")
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go io.Copy(io.Discard, c2)

	d := New()
	d.pids = []xdev.ProcessID{{UUID: 0}}
	d.wmu = make([]sync.Mutex, 1)
	d.wconn = make([]net.Conn, 1)
	d.setWriteConn(0, c1)
	d.crcOut = true

	payload := make([]byte, 64)
	segs := [][]byte{payload}
	h := header{typ: msgEager, src: 0, tag: 1, wireLen: uint64(len(payload))}

	// Warm the slice pools so the measurement sees the steady state.
	for i := 0; i < 8; i++ {
		if err := d.writeMsg(0, h, segs); err != nil {
			t.Fatal(err)
		}
	}

	hdrOnly := testing.AllocsPerRun(100, func() {
		if err := d.writeMsg(0, header{typ: msgAck, src: 0}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if hdrOnly > 0 {
		t.Errorf("header-only writeMsg allocates %.1f times per call, want 0", hdrOnly)
	}

	withPayload := testing.AllocsPerRun(100, func() {
		if err := d.writeMsg(0, h, segs); err != nil {
			t.Fatal(err)
		}
	})
	if withPayload > 1 {
		t.Errorf("segmented writeMsg allocates %.1f times per call, want <= 1", withPayload)
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

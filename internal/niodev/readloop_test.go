package niodev

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"testing"

	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// The frame reader's contract on arbitrary bytes: readLoop ends with a
// typed error or at a clean end of stream, never in a panic, and no
// length field in a frame header sizes an allocation or a read before it
// has been checked against what the protocol allows.

// sink is a connection that swallows what the handlers answer.
type sink struct{ net.Conn }

func (sink) Write(p []byte) (int, error) { return len(p), nil }
func (sink) Close() error                { return nil }

// bareDevice is rank 0 of a two-rank job with no transport behind it:
// enough for readLoop to run against a byte stream "from rank 1".
func bareDevice() *Device {
	d := New()
	d.cfg = xdev.Config{Rank: 0, Size: 2}
	d.pids = []xdev.ProcessID{{UUID: 0}, {UUID: 1}}
	d.self = d.pids[0]
	d.eagerLimit = DefaultEagerLimit
	d.queues = []*peerQueue{nil, {conn: sink{}}}
	d.initDone = true
	return d
}

// frame encodes h, sealed with both checksums, followed by payload.
func frame(h header, payload []byte) []byte {
	h.payCRC = crc32.Checksum(payload, castagnoli)
	out := make([]byte, headerLen, headerLen+len(payload))
	h.encode(out)
	return append(out, payload...)
}

// seal returns a copy of stream with hdrCRC and payCRC rewritten for
// every whole header in it, the payload sum taken over whatever of the
// payload follows; it stops at a frame type the reader would reject.
func seal(stream []byte) []byte {
	out := append([]byte(nil), stream...)
	for off := 0; off+headerLen <= len(out); {
		raw := out[off : off+headerLen]
		var n uint64
		switch raw[0] {
		case msgEager, msgEagerSync, msgRndvData:
			n = min(binary.BigEndian.Uint64(raw[24:32]), uint64(len(out)-off-headerLen))
		case msgRTS, msgRTR, msgAck, msgAbort, msgBye, msgRevoke:
		default:
			return out
		}
		payload := out[off+headerLen : off+headerLen+int(n)]
		binary.BigEndian.PutUint32(raw[32:36], crc32.Checksum(payload, castagnoli))
		binary.BigEndian.PutUint32(raw[36:40], crc32.Checksum(raw[0:36], castagnoli))
		off += headerLen + int(n)
	}
	return out
}

// wireOf is the wire form of one section of n doubles.
func wireOf(n int) []byte {
	b := mpjbuf.New(0)
	b.WriteDoubles(make([]float64, n), 0, n)
	return b.Wire()
}

func TestReadLoopRejectsBadLengths(t *testing.T) {
	eager := wireOf(4)
	for _, c := range []struct {
		name   string
		stream func(d *Device) []byte
	}{
		{"eager frame longer than the eager limit", func(*Device) []byte {
			return frame(header{typ: msgEager, src: 1, tag: 1, wireLen: DefaultEagerLimit + 1}, nil)
		}},
		{"eager frame with a 64-bit length", func(*Device) []byte {
			return frame(header{typ: msgEagerSync, src: 1, tag: 1, wireLen: 1 << 62}, nil)
		}},
		{"frame naming another sender", func(*Device) []byte {
			return frame(header{typ: msgEager, src: 7, tag: 1, wireLen: uint64(len(eager))}, eager)
		}},
		{"rendezvous data longer than its announcement", func(d *Device) []byte {
			return append(frame(header{typ: msgRTS, src: 1, tag: 1, seq: 9, wireLen: 1 << 20}, nil),
				frame(header{typ: msgRndvData, src: 1, tag: 1, seq: 9, wireLen: 1 << 40}, nil)...)
		}},
		{"rendezvous data shorter than its announcement", func(d *Device) []byte {
			return append(frame(header{typ: msgRTS, src: 1, tag: 1, seq: 9, wireLen: 1 << 20}, nil),
				frame(header{typ: msgRndvData, src: 1, tag: 1, seq: 9, wireLen: uint64(len(eager))}, eager)...)
		}},
	} {
		d := bareDevice()
		// A posted receive, so the rendezvous cases get as far as the data.
		rb := mpjbuf.New(0)
		req, err := d.IRecv(rb, d.pids[1], 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		err = d.readLoop(bytes.NewReader(c.stream(d)), 1)
		if !errors.Is(err, xdev.ErrCorruptFrame) {
			t.Errorf("%s: readLoop returned %v, want ErrCorruptFrame", c.name, err)
		}
		if n := d.Stats().FramesCorrupt; n != 1 {
			t.Errorf("%s: FramesCorrupt = %d, want 1", c.name, n)
		}
		if _, done, _ := req.Test(); done {
			// Only the rendezvous cases consume the receive, and they must
			// fail it in the peer-lost shape.
			if _, _, rerr := req.Test(); !errors.Is(rerr, xdev.ErrCorruptFrame) || !errors.Is(rerr, xdev.ErrPeerLost) {
				t.Errorf("%s: matched receive completed with %v", c.name, rerr)
			}
		}
	}
	// The limit itself is legal.
	d := bareDevice()
	ok := make([]byte, DefaultEagerLimit)
	binary.BigEndian.PutUint32(ok[0:4], uint32(len(ok)-8))
	if err := d.readLoop(bytes.NewReader(frame(header{typ: msgEager, src: 1, wireLen: uint64(len(ok))}, ok)), 1); err != io.EOF {
		t.Errorf("eager frame of exactly the eager limit: %v", err)
	}
}

// A rendezvous payload is announced to the transport before it is read:
// once, after its length was checked against the RTS, and for exactly
// the bytes the buffered reader has not already pulled off the stream.
// Eager frames are not announced.
func TestRendezvousPayloadIsAnnounced(t *testing.T) {
	d := bareDevice()
	rb := mpjbuf.New(0)
	if _, err := d.IRecv(rb, d.pids[1], 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.IRecv(mpjbuf.New(0), d.pids[1], 2, 0); err != nil {
		t.Fatal(err)
	}
	bulk, eager := wireOf(1<<17), wireOf(4)
	stream := frame(header{typ: msgRTS, src: 1, tag: 1, seq: 9, wireLen: uint64(len(bulk))}, nil)
	stream = append(stream, frame(header{typ: msgRndvData, src: 1, tag: 1, seq: 9, wireLen: uint64(len(bulk))}, bulk)...)
	stream = append(stream, frame(header{typ: msgEager, src: 1, tag: 2, wireLen: uint64(len(eager))}, eager)...)
	var announced []int
	br := &bulkReader{Reader: bufio.NewReaderSize(bytes.NewReader(stream), 64<<10)}
	br.expect = func(n int) { announced = append(announced, n+br.Buffered()) }
	if err := d.readLoop(br, 1); err != io.EOF {
		t.Fatal(err)
	}
	if len(announced) != 1 || announced[0] != len(bulk) {
		t.Errorf("announced %v, want one payload of %d bytes", announced, len(bulk))
	}
}

// Every single-bit corruption of a sealed eager frame, header or
// payload, is caught: CRC-32C detects all single-bit errors. A flip in
// the header fails hdrCRC before anything is matched; a flip in the
// payload fails payCRC whether the payload is streamed into a posted
// receive's buffer or staged for an unexpected message. Either way the
// reader ends with ErrCorruptFrame, counts one corrupt frame, and no
// receive completes without an error.
func TestEveryBitFlipIsCaught(t *testing.T) {
	payload := wireOf(1)
	sealed := frame(header{typ: msgEager, src: 1, tag: 1, wireLen: uint64(len(payload))}, payload)
	for _, posted := range []bool{false, true} {
		for bit := 0; bit < 8*len(sealed); bit++ {
			stream := append([]byte(nil), sealed...)
			stream[bit/8] ^= 1 << (bit % 8)
			d := bareDevice()
			var req xdev.Request
			if posted {
				var err error
				if req, err = d.IRecv(mpjbuf.New(0), d.pids[1], 1, 0); err != nil {
					t.Fatal(err)
				}
			}
			err := d.readLoop(bytes.NewReader(stream), 1)
			if !errors.Is(err, xdev.ErrCorruptFrame) {
				t.Fatalf("posted=%v, bit %d: readLoop returned %v, want ErrCorruptFrame", posted, bit, err)
			}
			if n := d.Stats().FramesCorrupt; n != 1 {
				t.Fatalf("posted=%v, bit %d: FramesCorrupt = %d, want 1", posted, bit, n)
			}
			if !posted {
				// Nothing was parked for a later receive to match.
				if req, err = d.IRecv(mpjbuf.New(0), d.pids[1], 1, 0); err != nil {
					t.Fatal(err)
				}
			}
			inPayload := bit >= 8*headerLen
			_, done, rerr := req.Test()
			switch {
			case posted && inPayload:
				if !done || !errors.Is(rerr, xdev.ErrPeerLost) || !errors.Is(rerr, xdev.ErrCorruptFrame) {
					t.Fatalf("bit %d: posted receive done=%v with %v, want ErrPeerLost and ErrCorruptFrame", bit, done, rerr)
				}
			case done:
				t.Fatalf("posted=%v, bit %d: receive completed with %v", posted, bit, rerr)
			}
			d.shutdown(ErrDeviceClosed, false)
		}
	}
}

// heapAllocBytes is the bytes allocated so far. ReadMemStats flushes
// every P's allocation cache first, so the count is exact; the runtime
// metric counts a cache refill's whole span at once.
func heapAllocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// FuzzReadLoop feeds an arbitrary byte stream to the frame reader of a
// device with nothing posted: every frame is unexpected or unknown. A
// mutated header fails its checksum before the frame switch, so with
// sealed set the stream's checksums are rewritten first (seal) and the
// mutation reaches the frame handlers; unsealed, the raw bytes exercise
// the integrity check.
func FuzzReadLoop(f *testing.F) {
	eager := wireOf(4)
	f.Add(frame(header{typ: msgEager, src: 1, tag: 3, wireLen: uint64(len(eager))}, eager), true)
	f.Add(frame(header{typ: msgEagerSync, src: 1, tag: 3, seq: 2, wireLen: uint64(len(eager))}, eager), true)
	f.Add(append(frame(header{typ: msgRTS, src: 1, seq: 5, wireLen: 1 << 20}, nil),
		frame(header{typ: msgRndvData, src: 1, seq: 5, wireLen: 1 << 20}, nil)...), true)
	f.Add(frame(header{typ: msgRTR, src: 1, seq: 5}, nil), true)
	f.Add(frame(header{typ: msgAck, src: 1, seq: 5}, nil), true)
	f.Add(frame(header{typ: msgRevoke, src: 1, ctx: 4}, nil), true)
	f.Add(frame(header{typ: msgAbort, src: 1, tag: 3}, nil), true)
	f.Add(frame(header{typ: msgBye, src: 1}, nil), true)
	f.Add(frame(header{typ: msgEager, src: 1, wireLen: 1 << 63}, nil), true)
	f.Add(frame(header{typ: msgEager, src: 1, wireLen: uint64(len(eager))}, eager), false)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, stream []byte, sealed bool) {
		if sealed {
			stream = seal(stream)
		}
		d := bareDevice()
		before := heapAllocBytes()
		err := d.readLoop(bytes.NewReader(stream), 1)
		grew := heapAllocBytes() - before
		// nil: an abort or bye frame ended the connection in protocol.
		if err != nil && err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, xdev.ErrCorruptFrame) {
			t.Fatalf("readLoop ended with an untyped error: %v", err)
		}
		// One staging slab of at most the eager limit, plus bookkeeping
		// proportional to the frames the input can hold.
		if limit := uint64(16*len(stream) + DefaultEagerLimit + 64<<10); grew > limit {
			t.Fatalf("%d input bytes made the reader allocate %d bytes (limit %d)", len(stream), grew, limit)
		}
		d.shutdown(ErrDeviceClosed, false)
	})
}

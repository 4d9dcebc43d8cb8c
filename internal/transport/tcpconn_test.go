package transport

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair returns a dialed connection and its accepted peer.
func tcpPair(t *testing.T) (dialed, accepted net.Conn) {
	t.Helper()
	l, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dialed, err = TCP{}.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

// within fails the test when f has not returned after a generous bound:
// every way Expect can go wrong is a reader that never wakes.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: reader still asleep after 10 s", what)
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// An announced payload arrives whole however the peer dribbles it, and
// the frames after it — which a buffered reader may have swallowed with
// its tail — are read with the mark back at one byte. Either end of a
// connection may be the reader.
func TestExpectDeliversPayloadAndFollowers(t *testing.T) {
	t.Run("accepted reads", func(t *testing.T) {
		dialed, accepted := tcpPair(t)
		expectPayloadAndFollowers(t, dialed, accepted)
	})
	t.Run("dialed reads", func(t *testing.T) {
		dialed, accepted := tcpPair(t)
		expectPayloadAndFollowers(t, accepted, dialed)
	})
}

func expectPayloadAndFollowers(t *testing.T, w, r net.Conn) {
	e, ok := r.(interface{ Expect(n int) })
	if !ok {
		t.Fatalf("connection %T does not take Expect", r)
	}
	payload := pattern(1<<20 + 13)
	go func() {
		for off := 0; off < len(payload); {
			n := min(len(payload)-off, 100_000)
			w.Write(payload[off : off+n])
			off += n
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		w.Write([]byte{1}) // a lone byte well below any bulk mark
		time.Sleep(20 * time.Millisecond)
		w.Write([]byte{2, 3})
	}()
	br := bufio.NewReaderSize(r, 64<<10)
	got := make([]byte, len(payload))
	within(t, "payload", func() {
		e.Expect(len(payload))
		if _, err := io.ReadFull(br, got); err != nil {
			t.Errorf("payload: %v", err)
		}
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	within(t, "followers", func() {
		var tail [3]byte
		if _, err := io.ReadFull(br, tail[:]); err != nil || tail != [3]byte{1, 2, 3} {
			t.Errorf("followers: %v %v", tail, err)
		}
	})
}

// A peer that dies inside the payload it announced wakes the reader
// with what it sent and the end of the stream.
func TestExpectPeerClosesMidPayload(t *testing.T) {
	w, r := tcpPair(t)
	go func() {
		w.Write(pattern(10_000))
		time.Sleep(20 * time.Millisecond)
		w.Close()
	}()
	within(t, "short payload", func() {
		r.(interface{ Expect(n int) }).Expect(1 << 20)
		n, err := io.ReadFull(r, make([]byte, 1<<20))
		if n != 10_000 || err != io.ErrUnexpectedEOF {
			t.Errorf("got %d bytes, %v; want 10000, unexpected EOF", n, err)
		}
	})
}

// A payload larger than any socket buffer: the mark is capped and the
// closing receive window wakes the reader, so nothing waits for bytes
// the sender has no room to send.
func TestExpectLargerThanSocketBuffers(t *testing.T) {
	w, r := tcpPair(t)
	payload := pattern(48 << 20)
	go w.Write(payload)
	got := make([]byte, len(payload))
	within(t, "48 MiB", func() {
		r.(interface{ Expect(n int) }).Expect(len(payload))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Errorf("payload: %v", err)
		}
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
}

package niodev

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// TestStatsProtocolSelection verifies through the counters that small
// messages really take the eager path and large ones rendezvous — the
// 128 KiB switch of §IV-A.
func TestStatsProtocolSelection(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			small := mpjbuf.New(0)
			small.WriteBytes(make([]byte, 1024), 0, 1024)
			if err := d.Send(small, pids[1], 0, 0); err != nil {
				t.Error(err)
				return
			}
			big := mpjbuf.New(0)
			payload := make([]byte, 256<<10)
			big.WriteBytes(payload, 0, len(payload))
			if err := d.Send(big, pids[1], 1, 0); err != nil {
				t.Error(err)
				return
			}
			st := d.Stats()
			if st.EagerSent != 1 {
				t.Errorf("EagerSent = %d, want 1", st.EagerSent)
			}
			if st.RndvSent != 1 {
				t.Errorf("RndvSent = %d, want 1", st.RndvSent)
			}
			if st.BytesSent < 257<<10 {
				t.Errorf("BytesSent = %d", st.BytesSent)
			}
		} else {
			b := mpjbuf.New(0)
			if _, err := d.Recv(b, pids[0], 0, 0); err != nil {
				t.Error(err)
			}
			b2 := mpjbuf.New(0)
			if _, err := d.Recv(b2, pids[0], 1, 0); err != nil {
				t.Error(err)
			}
		}
	})
}

// TestStatsUnexpectedVsMatched distinguishes arrivals that found a
// posted receive from those parked in the unexpected queue.
func TestStatsUnexpectedVsMatched(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			// Message 1: receiver not ready -> unexpected.
			sendInts(t, d, pids[1], 1, []int32{1})
			// Handshake so the peer can post the second receive first.
			recvInts(t, d, pids[1], 99, 1)
			// Message 2: receive already posted -> matched.
			sendInts(t, d, pids[1], 2, []int32{2})
		} else {
			time.Sleep(50 * time.Millisecond) // let message 1 land unexpected
			got := recvInts(t, d, pids[0], 1, 1)
			if len(got) == 1 && got[0] != 1 {
				t.Errorf("got %v", got)
			}
			// Post the second receive BEFORE releasing the sender.
			buf := mpjbuf.New(0)
			req, err := d.IRecv(buf, pids[0], 2, 0)
			if err != nil {
				t.Error(err)
				return
			}
			sendInts(t, d, pids[0], 99, []int32{0})
			if _, err := req.Wait(); err != nil {
				t.Error(err)
				return
			}
			st := d.Stats()
			if st.Unexpected < 1 {
				t.Errorf("Unexpected = %d, want >= 1", st.Unexpected)
			}
			if st.Matched < 1 {
				t.Errorf("Matched = %d, want >= 1", st.Matched)
			}
		}
	})
}

// TestAsyncRendezvousProgress: a rendezvous transfer completes at the
// receiver while the sender's application thread does no MPI calls —
// progress is driven entirely by the input-handler goroutines (the
// paper's progress-engine property).
func TestAsyncRendezvousProgress(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		const n = 100_000 // > eager limit as int32s
		if rank == 0 {
			vals := make([]int32, n)
			vals[n-1] = 7
			buf := mpjbuf.New(n*4 + 16)
			buf.WriteInts(vals, 0, n)
			req, err := d.ISend(buf, pids[1], 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			// Do NOT call Wait/Test until the receiver confirms it has
			// the data: progression must not depend on this thread.
			ack := recvInts(t, d, pids[1], 1, 1)
			if len(ack) == 1 && ack[0] != 1 {
				t.Errorf("ack %v", ack)
			}
			if _, err := req.Wait(); err != nil {
				t.Error(err)
			}
		} else {
			got := recvInts(t, d, pids[0], 0, n)
			if len(got) == n && got[n-1] != 7 {
				t.Errorf("tail %d", got[n-1])
			}
			sendInts(t, d, pids[0], 1, []int32{1})
		}
	})
}

// TestIntrospectSendQueueBytes: /introspect reports, per peer, the
// frames queued and their header and payload bytes — the figure the
// buffering bound (maxBatchBytes) applies to.
func TestIntrospectSendQueueBytes(t *testing.T) {
	d := bareDevice()
	d.queues[1].writing = true // a writer is busy: posts only append
	const frames, payload = 3, 100
	for i := 0; i < frames; i++ {
		if err := d.send(1, header{typ: msgEager}, [][]byte{make([]byte, payload)}, nil, xdev.Status{}, true); err != nil {
			t.Fatal(err)
		}
	}
	peers := d.Introspect().(introspection).Peers
	if len(peers) != 1 || peers[0].SendQueue != frames || peers[0].SendQueueBytes != frames*(headerLen+payload) {
		t.Fatalf("introspected peers = %+v, want %d frames of %d bytes queued", peers, frames, headerLen+payload)
	}
	if b, err := json.Marshal(peers[0]); err != nil || !strings.Contains(string(b), fmt.Sprintf(`"sendQueueBytes":%d`, frames*(headerLen+payload))) {
		t.Errorf("peer state JSON = %s (%v), want sendQueueBytes", b, err)
	}
}

package devtest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/mpjbuf"
	"mpj/internal/mpjdev"
	"mpj/internal/xdev"
)

// RunRecycle checks that a blocking call's request, which the device
// recycles once its Wait returns, is never seen or touched late. On each
// of two ranks four goroutines run blocking Send and Recv while a fifth
// loops mpjdev.WaitAny over a window of nonblocking requests on the same
// device — Irecvs on rank 1, Isends on rank 0 — so a peeker is parked in
// Peek while blocking completions land. Every request Peek hands out
// must be one that IRecv or ISend made: a blocking request on the
// completion queue would reach WaitAny after its Wait had recycled it.
// Every message must be delivered exactly once, in order on its stream.
// Run it under -race too: a completer that reads a request after
// publishing its completion races the waiter that recycles it.
func RunRecycle(t *testing.T, run JobRunner) {
	const (
		msgs       = 400 // per stream
		window     = 4   // WaitAny's outstanding requests
		tagWaitAny = 5
	)
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		w := &peekWatch{Device: d}
		peer := pids[1-rank]
		var wg sync.WaitGroup
		stream := func(f func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f()
			}()
		}
		// Tags 1 and 2 flow from rank 0 to rank 1, tags 3 and 4 back.
		for tag := 1; tag <= 4; tag++ {
			tag := tag
			if (tag <= 2) == (rank == 0) {
				stream(func() { sendSeq(t, w, peer, tag, msgs) })
			} else {
				stream(func() { recvSeq(t, w, peer, tag, msgs) })
			}
		}
		comm, err := mpjdev.NewComm(w, pids, rank, 0)
		if err != nil {
			t.Fatal(err)
		}
		stream(func() { waitAnySeq(t, comm, rank, tagWaitAny, msgs, window) })
		finished := make(chan struct{})
		go func() {
			wg.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-time.After(recycleStuck):
			// A lost completion or a wedged completion queue: nothing
			// would unblock the streams, Finish included.
			panic(fmt.Sprintf("devtest: rank %d's streams still blocked after %v", rank, recycleStuck))
		}
		if n := w.stray.Load(); n > 0 {
			t.Errorf("rank %d: Peek returned %d requests that no IRecv or ISend made", rank, n)
		}
	})
}

// recycleStuck bounds RunRecycle's streams: a few hundred milliseconds
// of traffic, under -race included.
const recycleStuck = 30 * time.Second

// peekWatch is a device whose Peek checks every request it returns
// against those its IRecv and ISend made.
type peekWatch struct {
	xdev.Device
	made  sync.Map // xdev.Request → struct{}
	stray atomic.Int64
}

func (w *peekWatch) IRecv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Request, error) {
	r, err := w.Device.IRecv(buf, src, tag, context)
	if err == nil {
		w.made.Store(r, struct{}{})
	}
	return r, err
}

func (w *peekWatch) ISend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	r, err := w.Device.ISend(buf, dst, tag, context)
	if err == nil {
		w.made.Store(r, struct{}{})
	}
	return r, err
}

func (w *peekWatch) Peek() (xdev.Request, error) {
	r, err := w.Device.Peek()
	if err == nil {
		if _, ok := w.made.Load(r); !ok {
			w.stray.Add(1)
		}
	}
	return r, err
}

// sendSeq sends 0..n-1 on tag with blocking Sends.
func sendSeq(t *testing.T, d xdev.Device, dst xdev.ProcessID, tag, n int) {
	buf := mpjbuf.New(16)
	for i := 0; i < n; i++ {
		buf.Reset()
		if err := buf.WriteLongs([]int64{int64(i)}, 0, 1); err != nil {
			t.Errorf("pack: %v", err)
			return
		}
		if err := d.Send(buf, dst, tag, 0); err != nil {
			t.Errorf("tag %d send %d: %v", tag, i, err)
			return
		}
	}
}

// recvSeq receives n messages on tag with blocking Recvs and checks they
// are 0..n-1 in order.
func recvSeq(t *testing.T, d xdev.Device, src xdev.ProcessID, tag, n int) {
	buf := mpjbuf.New(16)
	out := make([]int64, 1)
	for i := 0; i < n; i++ {
		if _, err := d.Recv(buf, src, tag, 0); err != nil {
			t.Errorf("tag %d recv %d: %v", tag, i, err)
			return
		}
		if _, err := buf.ReadLongs(out, 0, 1); err != nil || out[0] != int64(i) {
			t.Errorf("tag %d recv %d: got %d (%v)", tag, i, out[0], err)
			return
		}
	}
}

// waitAnySeq moves 0..n-1 on tag from rank 0 to rank 1 through a window
// of Isends (rank 0) or Irecvs (rank 1), each drained by WaitAny, and
// checks that every request comes back exactly once and that rank 1's
// k-th posted receive holds message k.
func waitAnySeq(t *testing.T, c *mpjdev.Comm, rank, tag, n, window int) {
	vals, reqs := make([]mpjdev.Request, window), make([]*mpjdev.Request, window)
	bufs := make([]*mpjbuf.Buffer, window)
	seqOf := make([]int64, window)
	post := func(slot, i int) bool {
		seqOf[slot] = int64(i)
		if bufs[slot] == nil {
			bufs[slot] = mpjbuf.New(16)
		}
		b := bufs[slot]
		b.Reset()
		var err error
		if rank == 0 {
			if err = b.WriteLongs([]int64{int64(i)}, 0, 1); err == nil {
				vals[slot], err = c.Isend(b, 1, tag)
			}
		} else {
			vals[slot], err = c.Irecv(b, 0, tag)
		}
		if err != nil {
			t.Errorf("rank %d post %d: %v", rank, i, err)
			return false
		}
		reqs[slot] = &vals[slot]
		return true
	}
	posted, done := 0, 0
	for ; posted < window && posted < n; posted++ {
		if !post(posted, posted) {
			return
		}
	}
	out := make([]int64, 1)
	for done < n {
		slot, _, err := mpjdev.WaitAny(reqs)
		if err != nil {
			t.Errorf("rank %d WaitAny: %v", rank, err)
			return
		}
		if reqs[slot] == nil {
			t.Errorf("rank %d: WaitAny returned slot %d twice", rank, slot)
			return
		}
		reqs[slot] = nil
		if rank == 1 {
			if _, err := bufs[slot].ReadLongs(out, 0, 1); err != nil || out[0] != seqOf[slot] {
				t.Errorf("WaitAny receive %d: got %d (%v)", seqOf[slot], out[0], err)
				return
			}
		}
		done++
		if posted < n {
			if !post(slot, posted) {
				return
			}
			posted++
		}
	}
}

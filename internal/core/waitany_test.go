package core

import (
	"errors"
	"runtime/debug"
	"testing"
	"time"

	"mpj/internal/ibisdev"
	"mpj/internal/xdev"
)

// TestWaitAnyAllocs pins core.WaitAny's fast path on smpdev: over 64
// posted receives, one of them complete, it allocates at most the
// *Status it returns.
func TestWaitAnyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runWorld(t, 1, func(p *Process, w *Intracomm) {
		const n, done = 64, 37
		reqs := make([]*Request, n)
		for i := range reqs {
			var err error
			if reqs[i], err = w.Irecv(make([]int32, 1), 0, 1, INT, 0, i); err != nil {
				t.Error(err)
				return
			}
		}
		if err := w.Send([]int32{7}, 0, 1, INT, 0, done); err != nil {
			t.Error(err)
			return
		}
		if a := testing.AllocsPerRun(100, func() {
			if idx, st, err := WaitAny(reqs); err != nil || idx != done || st.Tag != done {
				t.Errorf("idx=%d st=%+v err=%v", idx, st, err)
			}
		}); a > 1 {
			t.Errorf("WaitAny over %d requests, one complete: %v allocs, want <= 1", n, a)
		}
		reqs[done] = nil
		for i, r := range reqs {
			if r == nil {
				continue
			}
			if err := w.Send([]int32{0}, 0, 1, INT, 0, i); err != nil {
				t.Error(err)
			}
			if _, err := r.Wait(); err != nil {
				t.Error(err)
			}
		}
	})
}

// TestWaitAnyOverIbisdev: ibisdev has no completion queue, so WaitAny
// over it returns a request that has already completed and otherwise
// fails with the device's typed peek error — without panicking when it
// clears the attachments it set.
func TestWaitAnyOverIbisdev(t *testing.T) {
	runWorldOn(t, 2, func() xdev.Device { return ibisdev.New() }, func(p *Process, w *Intracomm) {
		if w.Rank() == 1 {
			// Tag 2 goes out only once rank 0 has checked the first case.
			if err := w.Send([]int32{1}, 0, 1, INT, 0, 1); err != nil {
				t.Error(err)
			}
			if _, err := w.Recv(make([]int32, 1), 0, 1, INT, 0, 9); err != nil {
				t.Error(err)
			}
			if err := w.Send([]int32{2}, 0, 1, INT, 0, 2); err != nil {
				t.Error(err)
			}
			return
		}
		later := make([]int32, 1)
		pending, err := w.Irecv(later, 0, 1, INT, 1, 2)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]int32, 1)
		complete, err := w.Irecv(buf, 0, 1, INT, 1, 1)
		if err != nil {
			t.Error(err)
			return
		}
		// Receive workers poll, so completion is only known by testing.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, ok, err := complete.Test(); err != nil || ok {
				break
			}
			if time.Now().After(deadline) {
				t.Error("tag 1 never arrived")
				return
			}
		}
		idx, st, err := WaitAny([]*Request{pending, complete})
		if err != nil || idx != 1 || st.Tag != 1 || buf[0] != 1 {
			t.Errorf("WaitAny over a complete request: idx=%d st=%+v buf=%v err=%v", idx, st, buf, err)
		}

		// Nothing complete: the call must block, which ibisdev cannot.
		stuck, err := w.Irecv(make([]int32, 1), 0, 1, INT, 0, 3)
		if err != nil {
			t.Error(err)
			return
		}
		_, _, err = WaitAny([]*Request{nil, stuck})
		var xe *xdev.Error
		if !errors.As(err, &xe) || xe.Dev != ibisdev.DeviceName || xe.Op != "peek" {
			t.Errorf("WaitAny with nothing complete: err = %v, want ibisdev's peek error", err)
		}
		if err := w.Send([]int32{0}, 0, 1, INT, 1, 9); err != nil {
			t.Error(err)
		}
		if _, err := pending.Wait(); err != nil || later[0] != 2 {
			t.Errorf("tag 2: %v %v", later, err)
		}
		if err := w.Send([]int32{3}, 0, 1, INT, 0, 3); err != nil {
			t.Error(err)
		}
		if _, err := stuck.Wait(); err != nil {
			t.Error(err)
		}
	})
}

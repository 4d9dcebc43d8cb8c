package core

import (
	"errors"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"mpj/internal/ibisdev"
	"mpj/internal/xdev"
)

// TestWaitAnyAllocs pins core.WaitAny's fast path on smpdev: over 64
// posted receives, one of them complete, it allocates nothing — no copy
// of the array, and the *Status it returns lives in the request.
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
		}); a != 0 {
			t.Errorf("WaitAny over %d requests, one complete: %v allocs, want 0", n, a)
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

// TestNonblockingAllocs pins what a nonblocking message costs on smpdev:
// an Irecv + Send + Wait cycle and an Isend + Recv + Wait cycle each
// allocate exactly twice — the device's request and the core Request,
// which embeds the rank-level request and holds the returned *Status.
// The blocking half allocates nothing, Recv's status included while
// Recv inlines and the caller drops it.
func TestNonblockingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runWorld(t, 1, func(p *Process, w *Intracomm) {
		var in, out any = make([]int32, 1), []int32{7} // boxed once, outside the counts
		cycles := map[string]func() error{
			"Irecv + Send + Wait": func() error {
				r, err := w.Irecv(in, 0, 1, INT, 0, 3)
				if err == nil {
					err = w.Send(out, 0, 1, INT, 0, 3)
				}
				if err == nil {
					_, err = r.Wait()
				}
				return err
			},
			"Isend + Recv + Wait": func() error {
				r, err := w.Isend(out, 0, 1, INT, 0, 4)
				if err == nil {
					_, err = w.Recv(in, 0, 1, INT, 0, 4)
				}
				if err == nil {
					_, err = r.Wait()
				}
				return err
			},
		}
		for name, cycle := range cycles {
			if a := testing.AllocsPerRun(200, func() {
				if err := cycle(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}); a != 2 {
				t.Errorf("%s: %v allocs, want 2", name, a)
			}
		}
	})
}

// TestRequestStatusOnce has two goroutines Test and Wait one receive
// at once: completion work runs once, both see the same status and the
// unpacked data, and -race finds no unsynchronized write.
func TestRequestStatusOnce(t *testing.T) {
	runWorld(t, 1, func(p *Process, w *Intracomm) {
		for round := 0; round < 20; round++ {
			buf := make([]int32, 1)
			r, err := w.Irecv(buf, 0, 1, INT, 0, round)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			sts := make([]*Status, 2)
			for g := range sts {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					if g == 0 {
						sts[g], err = r.Wait()
						return
					}
					for sts[g] == nil {
						var ok bool
						if sts[g], ok, _ = r.Test(); !ok {
							time.Sleep(10 * time.Microsecond)
						}
					}
				}(g)
			}
			if err := w.Send([]int32{int32(round)}, 0, 1, INT, 0, round); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if err != nil || sts[0] != sts[1] || sts[0].Tag != round || sts[0].Count() != 1 || buf[0] != int32(round) {
				t.Fatalf("round %d: statuses %p %p (%+v), buf %v, err %v", round, sts[0], sts[1], sts[0], buf, err)
			}
		}
	})
}

// TestWaitAnyReturnsLowestComplete: with several requests complete,
// WaitAny returns the lowest index first, whatever order they completed
// in.
func TestWaitAnyReturnsLowestComplete(t *testing.T) {
	runWorld(t, 1, func(p *Process, w *Intracomm) {
		const n = 8
		reqs := make([]*Request, n)
		for i := range reqs {
			var err error
			if reqs[i], err = w.Irecv(make([]int32, 1), 0, 1, INT, 0, i); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range []int{6, 2, 5} {
			if err := w.Send([]int32{int32(i)}, 0, 1, INT, 0, i); err != nil {
				t.Fatal(err)
			}
			for {
				if _, ok, err := reqs[i].inner.Test(); ok || err != nil {
					break
				}
			}
		}
		for _, want := range []int{2, 5, 6} {
			idx, st, err := WaitAny(reqs)
			if err != nil || idx != want || st.Tag != want {
				t.Fatalf("WaitAny: idx=%d st=%+v err=%v, want %d", idx, st, err, want)
			}
			reqs[idx] = nil
		}
		for i, r := range reqs {
			if r != nil {
				if err := w.Send([]int32{0}, 0, 1, INT, 0, i); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

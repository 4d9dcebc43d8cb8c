package mpjdev

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/mpjbuf"
	"mpj/internal/smpdev"
	"mpj/internal/xdev"
)

var groupCounter atomic.Int64

// runJob wires n ranks over smpdev and hands each a *Comm on context 0.
func runJob(t *testing.T, n int, fn func(c *Comm, rank int)) {
	t.Helper()
	group := fmt.Sprintf("mpjdev-test-%d", groupCounter.Add(1))
	runJobOn(t, n, func() xdev.Device { return smpdev.New() }, func(rank int) xdev.Config {
		return xdev.Config{Rank: rank, Size: n, Group: group}
	}, fn)
}

// runJobOn is runJob over devices made by newDev and configured by cfg.
func runJobOn(t *testing.T, n int, newDev func() xdev.Device, cfg func(rank int) xdev.Config, fn func(c *Comm, rank int)) {
	t.Helper()
	devs := make([]xdev.Device, n)
	comms := make([]*Comm, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		devs[i] = newDev()
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			pids, err := devs[rank].Init(cfg(rank))
			if err != nil {
				errs[rank] = err
				return
			}
			comms[rank], errs[rank] = NewComm(devs[rank], pids, rank, 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	defer func() {
		for _, d := range devs {
			d.Finish()
		}
	}()
	var jobWG sync.WaitGroup
	for i := 0; i < n; i++ {
		jobWG.Add(1)
		go func(rank int) {
			defer jobWG.Done()
			fn(comms[rank], rank)
		}(i)
	}
	done := make(chan struct{})
	go func() {
		jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("job deadlocked")
	}
}

func packInt(t *testing.T, v int64) *mpjbuf.Buffer {
	t.Helper()
	buf := mpjbuf.New(16)
	if err := buf.WriteLongs([]int64{v}, 0, 1); err != nil {
		t.Fatal(err)
	}
	return buf
}

func unpackInt(t *testing.T, buf *mpjbuf.Buffer) int64 {
	t.Helper()
	out := make([]int64, 1)
	if _, err := buf.ReadLongs(out, 0, 1); err != nil {
		t.Error(err)
		return -1
	}
	return out[0]
}

func TestRankAddressedSendRecv(t *testing.T) {
	runJob(t, 2, func(c *Comm, rank int) {
		if rank == 0 {
			if err := c.Send(packInt(t, 42), 1, 5); err != nil {
				t.Error(err)
			}
		} else {
			buf := mpjbuf.New(0)
			st, err := c.Recv(buf, 0, 5)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Source != 0 || st.Tag != 5 {
				t.Errorf("status %+v", st)
			}
			if got := unpackInt(t, buf); got != 42 {
				t.Errorf("got %d", got)
			}
		}
	})
}

func TestAnySourceStatusRank(t *testing.T) {
	runJob(t, 3, func(c *Comm, rank int) {
		if rank > 0 {
			if err := c.Send(packInt(t, int64(rank)), 0, 1); err != nil {
				t.Error(err)
			}
			return
		}
		for i := 0; i < 2; i++ {
			buf := mpjbuf.New(0)
			st, err := c.Recv(buf, AnySource, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if got := unpackInt(t, buf); got != int64(st.Source) {
				t.Errorf("payload %d but status source %d", got, st.Source)
			}
		}
	})
}

func TestRankValidation(t *testing.T) {
	runJob(t, 2, func(c *Comm, rank int) {
		if err := c.Send(packInt(t, 1), 7, 0); err == nil {
			t.Error("send to rank 7 accepted in size-2 comm")
		}
		if _, err := c.Irecv(mpjbuf.New(0), -5, 0); err == nil {
			t.Error("recv from rank -5 accepted")
		}
	})
}

func TestContextIsolationViaDup(t *testing.T) {
	runJob(t, 2, func(c *Comm, rank int) {
		c2 := c.Dup(99)
		if rank == 0 {
			if err := c.Send(packInt(t, 1), 1, 0); err != nil {
				t.Error(err)
			}
			if err := c2.Send(packInt(t, 2), 1, 0); err != nil {
				t.Error(err)
			}
		} else {
			// Receive on the dup'd context first.
			buf := mpjbuf.New(0)
			if _, err := c2.Recv(buf, 0, 0); err != nil {
				t.Error(err)
				return
			}
			if got := unpackInt(t, buf); got != 2 {
				t.Errorf("dup context got %d, want 2", got)
			}
			buf2 := mpjbuf.New(0)
			if _, err := c.Recv(buf2, 0, 0); err != nil {
				t.Error(err)
				return
			}
			if got := unpackInt(t, buf2); got != 1 {
				t.Errorf("base context got %d, want 1", got)
			}
		}
	})
}

func TestSubComm(t *testing.T) {
	runJob(t, 3, func(c *Comm, rank int) {
		// Subgroup {2, 0}: new rank 0 is old rank 2, new rank 1 is old 0.
		if rank == 1 {
			return // not in the subgroup
		}
		newRank := 0
		if rank == 0 {
			newRank = 1
		}
		sub, err := c.Sub([]int{2, 0}, newRank, 7)
		if err != nil {
			t.Error(err)
			return
		}
		if sub.Size() != 2 || sub.Rank() != newRank {
			t.Errorf("sub size %d rank %d", sub.Size(), sub.Rank())
		}
		if rank == 2 { // new rank 0 sends to new rank 1
			if err := sub.Send(packInt(t, 77), 1, 0); err != nil {
				t.Error(err)
			}
		} else {
			buf := mpjbuf.New(0)
			st, err := sub.Recv(buf, 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Source != 0 {
				t.Errorf("status source %d, want 0 (sub-rank)", st.Source)
			}
			if got := unpackInt(t, buf); got != 77 {
				t.Errorf("got %d", got)
			}
		}
	})
}

// TestWaitAllTestAll posts ten tagged sends and receives and waits on
// each request in turn: every receive completes with its own tag and
// payload.
func TestWaitAllTestAll(t *testing.T) {
	runJob(t, 2, func(c *Comm, rank int) {
		const n = 10
		if rank == 0 {
			reqs := make([]*Request, n)
			for i := 0; i < n; i++ {
				r, err := c.Isend(packInt(t, int64(i)), 1, i)
				if err != nil {
					t.Error(err)
					return
				}
				reqs[i] = r
			}
			for i, r := range reqs {
				if _, err := r.Wait(); err != nil {
					t.Errorf("send %d: %v", i, err)
				}
			}
		} else {
			reqs := make([]*Request, n)
			bufs := make([]*mpjbuf.Buffer, n)
			for i := 0; i < n; i++ {
				bufs[i] = mpjbuf.New(0)
				r, err := c.Irecv(bufs[i], 0, i)
				if err != nil {
					t.Error(err)
					return
				}
				reqs[i] = r
			}
			for i, r := range reqs {
				st, err := r.Wait()
				if err != nil {
					t.Errorf("req %d: %v", i, err)
					return
				}
				if st.Tag != i {
					t.Errorf("req %d: tag %d", i, st.Tag)
				}
				if got := unpackInt(t, bufs[i]); got != int64(i) {
					t.Errorf("req %d: payload %d", i, got)
				}
			}
		}
	})
}

func TestWaitAnyAlreadyComplete(t *testing.T) {
	runJob(t, 2, func(c *Comm, rank int) {
		if rank == 0 {
			c.Send(packInt(t, 1), 1, 3)
		} else {
			buf := mpjbuf.New(0)
			req, err := c.Irecv(buf, 0, 3)
			if err != nil {
				t.Error(err)
				return
			}
			req.Wait() // complete it fully first
			idx, _, err := WaitAny([]*Request{nil, req})
			if err != nil {
				t.Error(err)
				return
			}
			if idx != 1 {
				t.Errorf("idx = %d", idx)
			}
		}
	})
}

func TestWaitAnyBlocksUntilCompletion(t *testing.T) {
	runJob(t, 2, func(c *Comm, rank int) {
		if rank == 0 {
			time.Sleep(50 * time.Millisecond)
			if err := c.Send(packInt(t, 9), 1, 2); err != nil {
				t.Error(err)
			}
		} else {
			bufA := mpjbuf.New(0)
			reqA, err := c.Irecv(bufA, AnySource, 1) // satisfied only at the end
			if err != nil {
				t.Error(err)
				return
			}
			bufB := mpjbuf.New(0)
			reqB, err := c.Irecv(bufB, 0, 2)
			if err != nil {
				t.Error(err)
				return
			}
			idx, st, err := WaitAny([]*Request{reqA, reqB})
			if err != nil {
				t.Error(err)
				return
			}
			if idx != 1 || st.Tag != 2 {
				t.Errorf("idx=%d st=%+v", idx, st)
			}
			// Drain reqA to let the job end cleanly.
			if err := c.Send(packInt(t, 0), 1, 1); err != nil {
				t.Error(err)
			}
			reqA.Wait()
		}
	})
}

func TestWaitAnyManyThreads(t *testing.T) {
	// Multiple goroutines call Waitany simultaneously (the WaitanyQue
	// scenario of §IV-E.1); each waits on its own request and all must
	// be woken by the single peeker chain.
	const threads = 8
	runJob(t, 2, func(c *Comm, rank int) {
		if rank == 0 {
			// Release the receivers in reverse order with small gaps.
			for i := threads - 1; i >= 0; i-- {
				if err := c.Send(packInt(t, int64(i)), 1, i); err != nil {
					t.Error(err)
				}
				time.Sleep(5 * time.Millisecond)
			}
		} else {
			var wg sync.WaitGroup
			for g := 0; g < threads; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := mpjbuf.New(0)
					req, err := c.Irecv(buf, 0, g)
					if err != nil {
						t.Error(err)
						return
					}
					idx, st, err := WaitAny([]*Request{req})
					if err != nil {
						t.Error(err)
						return
					}
					if idx != 0 || st.Tag != g {
						t.Errorf("goroutine %d: idx=%d st=%+v", g, idx, st)
					}
					if got := unpackInt(t, buf); got != int64(g) {
						t.Errorf("goroutine %d: payload %d", g, got)
					}
				}(g)
			}
			wg.Wait()
		}
	})
}

func TestWaitAnyMixedWithPlainWait(t *testing.T) {
	// A completion for a request nobody Waitany's on (scenario 3) must
	// not wedge the peeker.
	runJob(t, 2, func(c *Comm, rank int) {
		if rank == 0 {
			c.Send(packInt(t, 1), 1, 10) // plain
			time.Sleep(20 * time.Millisecond)
			c.Send(packInt(t, 2), 1, 11) // watched by Waitany
		} else {
			plainBuf := mpjbuf.New(0)
			plain, err := c.Irecv(plainBuf, 0, 10)
			if err != nil {
				t.Error(err)
				return
			}
			watchedBuf := mpjbuf.New(0)
			watched, err := c.Irecv(watchedBuf, 0, 11)
			if err != nil {
				t.Error(err)
				return
			}
			idx, _, err := WaitAny([]*Request{watched})
			if err != nil || idx != 0 {
				t.Errorf("idx=%d err=%v", idx, err)
			}
			if _, err := plain.Wait(); err != nil {
				t.Error(err)
			}
		}
	})
}

func TestWaitAnyNoActive(t *testing.T) {
	if _, _, err := WaitAny([]*Request{nil, nil}); err != ErrNoActiveRequests {
		t.Fatalf("err = %v", err)
	}
}

func TestTestAny(t *testing.T) {
	runJob(t, 2, func(c *Comm, rank int) {
		if rank == 0 {
			c.Send(packInt(t, 1), 1, 0)
		} else {
			buf := mpjbuf.New(0)
			req, _ := c.Irecv(buf, 0, 0)
			deadline := time.Now().Add(5 * time.Second)
			for {
				idx, _, ok, err := TestAny([]*Request{req})
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					if idx != 0 {
						t.Errorf("idx = %d", idx)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Error("TestAny never succeeded")
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	})
}

func TestIssendViaComm(t *testing.T) {
	runJob(t, 2, func(c *Comm, rank int) {
		if rank == 0 {
			req, err := c.Issend(packInt(t, 5), 1, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if _, ok, _ := req.Test(); ok {
				t.Error("Issend complete before match")
			}
			c.Send(packInt(t, 0), 1, 1) // go-ahead
			if _, err := req.Wait(); err != nil {
				t.Error(err)
			}
		} else {
			b := mpjbuf.New(0)
			c.Recv(b, 0, 1)
			b2 := mpjbuf.New(0)
			if _, err := c.Recv(b2, 0, 0); err != nil {
				t.Error(err)
			}
		}
	})
}

func TestProbeIprobeViaComm(t *testing.T) {
	runJob(t, 2, func(c *Comm, rank int) {
		if rank == 0 {
			c.Send(packInt(t, 1), 1, 4)
		} else {
			st, err := c.Probe(AnySource, AnyTag)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Source != 0 || st.Tag != 4 {
				t.Errorf("probe %+v", st)
			}
			if _, ok, _ := c.Iprobe(0, 4); !ok {
				t.Error("iprobe missed message")
			}
			buf := mpjbuf.New(0)
			c.Recv(buf, 0, 4)
		}
	})
}

func TestNewCommValidation(t *testing.T) {
	if _, err := NewComm(nil, []xdev.ProcessID{{UUID: 0}}, 5, 0); err == nil {
		t.Fatal("bad rank accepted")
	}
}

func TestWaitAnyRejectsMixedDevices(t *testing.T) {
	// Two independent 1-rank jobs on different devices; Waitany over
	// requests from both must be rejected.
	mk := func() (*Comm, *Request, func()) {
		group := fmt.Sprintf("mpjdev-mixed-%d", groupCounter.Add(1))
		dev := smpdev.New()
		pids, err := dev.Init(xdev.Config{Rank: 0, Size: 1, Group: group})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewComm(dev, pids, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := mpjbuf.New(0)
		r, err := c.Irecv(buf, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		cleanup := func() {
			b := mpjbuf.New(16)
			b.WriteLongs([]int64{1}, 0, 1)
			c.Send(b, 0, 5)
			r.Wait()
			dev.Finish()
		}
		return c, r, cleanup
	}
	_, r1, c1 := mk()
	_, r2, c2 := mk()
	if _, _, err := WaitAny([]*Request{r1, r2}); err == nil {
		t.Error("Waitany across devices accepted")
	}
	c1()
	c2()
}

// TestWaitAnyChurnStress hammers the WaitanyQue with short-lived
// Waitany calls whose completions race with registration: many
// goroutines repeatedly self-send and immediately WaitAny, so
// completions frequently land in the attach/test/enqueue windows.
func TestWaitAnyChurnStress(t *testing.T) {
	runJob(t, 1, func(c *Comm, rank int) {
		const goroutines = 8
		const rounds = 100
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					buf := mpjbuf.New(0)
					req, err := c.Irecv(buf, 0, g)
					if err != nil {
						t.Errorf("irecv: %v", err)
						return
					}
					if err := c.Send(packInt(t, int64(g*rounds+i)), 0, g); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					idx, _, err := WaitAny([]*Request{req})
					if err != nil || idx != 0 {
						t.Errorf("waitany: idx=%d err=%v", idx, err)
						return
					}
					if got := unpackInt(t, buf); got != int64(g*rounds+i) {
						t.Errorf("g%d round %d: got %d", g, i, got)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestAbortWakesBlockedRecv checks the MPI_Abort path end to end over
// smpdev: one rank aborts the job while the other is blocked in Recv;
// the blocked rank must wake with an error wrapping xdev.ErrAborted
// carrying the abort code, not hang.
func TestAbortWakesBlockedRecv(t *testing.T) {
	runJob(t, 2, func(c *Comm, rank int) {
		if rank == 1 {
			buf := mpjbuf.New(0)
			_, err := c.Recv(buf, 0, 7)
			if err == nil {
				t.Error("recv survived abort with nil error")
				return
			}
			if !errors.Is(err, xdev.ErrAborted) {
				t.Errorf("recv error %v does not wrap ErrAborted", err)
			}
			var ab *xdev.AbortError
			if !errors.As(err, &ab) || ab.Code != 3 {
				t.Errorf("recv error %v does not carry abort code 3", err)
			}
			return
		}
		time.Sleep(50 * time.Millisecond) // let rank 1 block in Recv
		if err := c.Abort(3); err != nil {
			t.Errorf("abort: %v", err)
		}
	})
}

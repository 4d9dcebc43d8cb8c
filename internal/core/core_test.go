package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/smpdev"
	"mpj/internal/xdev"
)

var groupCounter atomic.Int64

// runWorld starts an n-rank world over the shared-memory device and
// runs fn once per rank, each on its own goroutine.
func runWorld(t *testing.T, n int, fn func(p *Process, w *Intracomm)) {
	t.Helper()
	runWorldOn(t, n, func() xdev.Device { return smpdev.New() }, fn)
}

// runWorldOn is runWorld over in-process devices made by newDev.
func runWorldOn(t *testing.T, n int, newDev func() xdev.Device, fn func(p *Process, w *Intracomm)) {
	t.Helper()
	group := fmt.Sprintf("core-test-%d", groupCounter.Add(1))
	procs := make([]*Process, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			procs[rank], errs[rank] = Init(newDev(), xdev.Config{Rank: rank, Size: n, Group: group})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d init: %v", i, err)
		}
	}
	defer func() {
		for _, p := range procs {
			p.Finalize()
		}
	}()
	var jobWG sync.WaitGroup
	for i := 0; i < n; i++ {
		jobWG.Add(1)
		go func(rank int) {
			defer jobWG.Done()
			fn(procs[rank], procs[rank].World())
		}(i)
	}
	done := make(chan struct{})
	go func() {
		jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("world deadlocked")
	}
}

// runWorldBench is runWorld for benchmarks; fn runs once per rank and
// returns an error.
func runWorldBench(b *testing.B, n int, fn func(p *Process, w *Intracomm) error) {
	b.Helper()
	group := fmt.Sprintf("core-bench-%d", groupCounter.Add(1))
	procs := make([]*Process, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			procs[rank], errs[rank] = Init(smpdev.New(), xdev.Config{Rank: rank, Size: n, Group: group})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("rank %d init: %v", i, err)
		}
	}
	defer func() {
		for _, p := range procs {
			p.Finalize()
		}
	}()
	var jobWG sync.WaitGroup
	bodyErrs := make([]error, n)
	for i := 0; i < n; i++ {
		jobWG.Add(1)
		go func(rank int) {
			defer jobWG.Done()
			bodyErrs[rank] = fn(procs[rank], procs[rank].World())
		}(i)
	}
	jobWG.Wait()
	for i, err := range bodyErrs {
		if err != nil {
			b.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestWorldBasics(t *testing.T) {
	runWorld(t, 3, func(p *Process, w *Intracomm) {
		if w.Size() != 3 {
			t.Errorf("size = %d", w.Size())
		}
		if w.Rank() < 0 || w.Rank() > 2 {
			t.Errorf("rank = %d", w.Rank())
		}
		if p.QueryThread() != ThreadMultiple {
			t.Errorf("thread level %v", p.QueryThread())
		}
	})
}

func TestInitThreadProvidesMultiple(t *testing.T) {
	group := fmt.Sprintf("core-thread-%d", groupCounter.Add(1))
	for _, req := range []ThreadLevel{ThreadSingle, ThreadFunneled, ThreadSerialized, ThreadMultiple} {
		p, provided, err := InitThread(smpdev.New(), xdev.Config{Rank: 0, Size: 1, Group: fmt.Sprintf("%s-%d", group, req)}, req)
		if err != nil {
			t.Fatal(err)
		}
		if provided != ThreadMultiple {
			t.Errorf("requested %v, provided %v (want MPI_THREAD_MULTIPLE)", req, provided)
		}
		p.Finalize()
	}
	if _, _, err := InitThread(smpdev.New(), xdev.Config{Rank: 0, Size: 1}, ThreadLevel(9)); err == nil {
		t.Error("invalid thread level accepted")
	}
}

func TestThreadLevelString(t *testing.T) {
	if ThreadMultiple.String() != "MPI_THREAD_MULTIPLE" {
		t.Errorf("got %q", ThreadMultiple.String())
	}
	if ThreadLevel(42).String() == "" {
		t.Error("unknown level has empty name")
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	group := fmt.Sprintf("core-fin-%d", groupCounter.Add(1))
	p, err := Init(smpdev.New(), xdev.Config{Rank: 0, Size: 1, Group: group})
	if err != nil {
		t.Fatal(err)
	}
	if p.Finalized() {
		t.Error("finalized before Finalize")
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !p.Finalized() {
		t.Error("not finalized after Finalize")
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvTyped(t *testing.T) {
	runWorld(t, 2, func(p *Process, w *Intracomm) {
		if w.Rank() == 0 {
			data := []float64{1.5, 2.5, 3.5}
			if err := w.Send(data, 0, 3, DOUBLE, 1, 7); err != nil {
				t.Error(err)
			}
		} else {
			got := make([]float64, 3)
			st, err := w.Recv(got, 0, 3, DOUBLE, 0, 7)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Source != 0 || st.Tag != 7 || st.Count() != 3 || st.GetCount(DOUBLE) != 3 {
				t.Errorf("status %+v count %d", st, st.Count())
			}
			if got[2] != 3.5 {
				t.Errorf("got %v", got)
			}
		}
	})
}

func TestSendRecvWithOffset(t *testing.T) {
	runWorld(t, 2, func(p *Process, w *Intracomm) {
		if w.Rank() == 0 {
			data := []int32{0, 0, 10, 20, 30}
			if err := w.Send(data, 2, 3, INT, 1, 0); err != nil {
				t.Error(err)
			}
		} else {
			got := make([]int32, 6)
			if _, err := w.Recv(got, 3, 3, INT, 0, 0); err != nil {
				t.Error(err)
				return
			}
			want := []int32{0, 0, 0, 10, 20, 30}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("got %v", got)
				}
			}
		}
	})
}

func TestIsendIrecvWaitAll(t *testing.T) {
	runWorld(t, 2, func(p *Process, w *Intracomm) {
		const k = 8
		if w.Rank() == 0 {
			reqs := make([]*Request, k)
			for i := range reqs {
				r, err := w.Isend([]int64{int64(i)}, 0, 1, LONG, 1, i)
				if err != nil {
					t.Error(err)
					return
				}
				reqs[i] = r
			}
			if _, err := WaitAll(reqs); err != nil {
				t.Error(err)
			}
		} else {
			reqs := make([]*Request, k)
			bufs := make([][]int64, k)
			for i := range reqs {
				bufs[i] = make([]int64, 1)
				r, err := w.Irecv(bufs[i], 0, 1, LONG, 0, i)
				if err != nil {
					t.Error(err)
					return
				}
				reqs[i] = r
			}
			sts, err := WaitAll(reqs)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range reqs {
				if bufs[i][0] != int64(i) {
					t.Errorf("req %d: got %d", i, bufs[i][0])
				}
				if sts[i].Tag != i {
					t.Errorf("req %d: tag %d", i, sts[i].Tag)
				}
			}
		}
	})
}

func TestCoreWaitAnyUnpacksData(t *testing.T) {
	runWorld(t, 2, func(p *Process, w *Intracomm) {
		if w.Rank() == 0 {
			time.Sleep(20 * time.Millisecond)
			if err := w.Send([]float64{42}, 0, 1, DOUBLE, 1, 5); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]float64, 1)
			req, err := w.Irecv(buf, 0, 1, DOUBLE, 0, 5)
			if err != nil {
				t.Error(err)
				return
			}
			idx, st, err := WaitAny([]*Request{req})
			if err != nil {
				t.Error(err)
				return
			}
			if idx != 0 || st.Tag != 5 {
				t.Errorf("idx=%d st=%+v", idx, st)
			}
			if buf[0] != 42 {
				t.Errorf("data not unpacked: %v", buf)
			}
		}
	})
}

func TestSsendIssend(t *testing.T) {
	runWorld(t, 2, func(p *Process, w *Intracomm) {
		if w.Rank() == 0 {
			req, err := w.Issend([]int32{1}, 0, 1, INT, 1, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if _, ok, _ := req.Test(); ok {
				t.Error("Issend complete before receiver matched")
			}
			if err := w.Send([]int32{0}, 0, 1, INT, 1, 1); err != nil {
				t.Error(err)
			}
			if _, err := req.Wait(); err != nil {
				t.Error(err)
			}
			// Blocking Ssend round.
			if err := w.Ssend([]int32{2}, 0, 1, INT, 1, 2); err != nil {
				t.Error(err)
			}
		} else {
			b := make([]int32, 1)
			w.Recv(b, 0, 1, INT, 0, 1)
			w.Recv(b, 0, 1, INT, 0, 0)
			if _, err := w.Recv(b, 0, 1, INT, 0, 2); err != nil {
				t.Error(err)
			}
			if b[0] != 2 {
				t.Errorf("got %d", b[0])
			}
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	runWorld(t, 2, func(p *Process, w *Intracomm) {
		peer := 1 - w.Rank()
		out := []int32{int32(w.Rank())}
		in := make([]int32, 1)
		st, err := w.Sendrecv(out, 0, 1, INT, peer, 9, in, 0, 1, INT, peer, 9)
		if err != nil {
			t.Error(err)
			return
		}
		if in[0] != int32(peer) || st.Source != peer {
			t.Errorf("in=%v st=%+v", in, st)
		}
	})
}

func TestBsendRequiresAttachedBuffer(t *testing.T) {
	runWorld(t, 2, func(p *Process, w *Intracomm) {
		if w.Rank() == 0 {
			if err := w.Bsend([]int32{1}, 0, 1, INT, 1, 0); err == nil {
				t.Error("Bsend without attached buffer succeeded")
			}
			if err := p.BufferAttach(1 << 16); err != nil {
				t.Error(err)
			}
			if err := p.BufferAttach(1); err == nil {
				t.Error("double attach accepted")
			}
			if err := w.Bsend([]int32{7}, 0, 1, INT, 1, 0); err != nil {
				t.Error(err)
			}
			// A message far beyond the pool must be rejected.
			big := make([]int32, 1<<16)
			if err := w.Bsend(big, 0, len(big), INT, 1, 1); err == nil {
				t.Error("oversized Bsend accepted")
			}
			if n := p.BufferDetach(); n != 1<<16 {
				t.Errorf("detach returned %d", n)
			}
		} else {
			b := make([]int32, 1)
			if _, err := w.Recv(b, 0, 1, INT, 0, 0); err != nil {
				t.Error(err)
			}
			if b[0] != 7 {
				t.Errorf("got %d", b[0])
			}
		}
	})
}

func TestProbeIprobeCore(t *testing.T) {
	runWorld(t, 2, func(p *Process, w *Intracomm) {
		if w.Rank() == 0 {
			w.Send([]int32{1, 2, 3}, 0, 3, INT, 1, 4)
		} else {
			st, err := w.Probe(AnySource, AnyTag)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Source != 0 || st.Tag != 4 {
				t.Errorf("probe %+v", st)
			}
			if _, ok, _ := w.Iprobe(0, 4); !ok {
				t.Error("iprobe missed message")
			}
			b := make([]int32, 3)
			w.Recv(b, 0, 3, INT, 0, 4)
		}
	})
}

func TestRecvCountSmallerMessage(t *testing.T) {
	// Receiving into a larger window reports the actual element count.
	runWorld(t, 2, func(p *Process, w *Intracomm) {
		if w.Rank() == 0 {
			w.Send([]int32{1, 2}, 0, 2, INT, 1, 0)
		} else {
			b := make([]int32, 10)
			st, err := w.Recv(b, 0, 10, INT, 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Count() != 2 || st.GetCount(INT) != 2 {
				t.Errorf("count %d", st.Count())
			}
		}
	})
}

func TestThreadMultipleCore(t *testing.T) {
	// Concurrent sends/recvs through the full API stack.
	const goroutines = 6
	runWorld(t, 2, func(p *Process, w *Intracomm) {
		peer := 1 - w.Rank()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					want := int64(g*1000 + i)
					if err := w.Send([]int64{want}, 0, 1, LONG, peer, g); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					buf := make([]int64, 1)
					if _, err := w.Recv(buf, 0, 1, LONG, peer, g); err != nil {
						t.Errorf("recv: %v", err)
						return
					}
					if buf[0] != want {
						t.Errorf("g%d i%d: got %d", g, i, buf[0])
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

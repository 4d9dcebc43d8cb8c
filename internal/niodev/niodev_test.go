package niodev

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpj/internal/mpjbuf"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// runJob starts n devices wired through an in-process transport
// (opts.Dialer and opts.Addrs when set) and runs fn for each rank on its
// own goroutine, as n "processes".
func runJob(t *testing.T, n int, opts xdev.Config, fn func(d *Device, rank int, pids []xdev.ProcessID)) {
	t.Helper()
	tr := opts.Dialer
	if tr == nil {
		tr = transport.NewInProc(0)
	}
	addrs := opts.Addrs
	if addrs == nil {
		addrs = make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("rank-%d", i)
		}
	}
	var wg sync.WaitGroup
	devs := make([]*Device, n)
	errs := make([]error, n)
	pidLists := make([][]xdev.ProcessID, n)
	for i := 0; i < n; i++ {
		devs[i] = New()
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := opts
			cfg.Rank, cfg.Size, cfg.Addrs, cfg.Dialer = rank, n, addrs, tr
			pidLists[rank], errs[rank] = devs[rank].Init(cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d init: %v", i, err)
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
			fn(devs[rank], rank, pidLists[rank])
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
		t.Fatal("job deadlocked (60s timeout)")
	}
}

// loopbackAddrs reserves n loopback TCP addresses by listening on :0
// first, then closing; niodev's dial retry tolerates the small race.
func loopbackAddrs(t *testing.T, n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := transport.TCP{}.Listen("127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback unavailable: %v", err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

func sendInts(t *testing.T, d *Device, dst xdev.ProcessID, tag int, vals []int32) {
	t.Helper()
	buf := mpjbuf.New(len(vals)*4 + 16)
	if err := buf.WriteInts(vals, 0, len(vals)); err != nil {
		t.Errorf("pack: %v", err)
		return
	}
	if err := d.Send(buf, dst, tag, 0); err != nil {
		t.Errorf("send: %v", err)
	}
}

func recvInts(t *testing.T, d *Device, src xdev.ProcessID, tag, n int) []int32 {
	t.Helper()
	buf := mpjbuf.New(0)
	if _, err := d.Recv(buf, src, tag, 0); err != nil {
		t.Errorf("recv: %v", err)
		return nil
	}
	out := make([]int32, n)
	if _, err := buf.ReadInts(out, 0, n); err != nil {
		t.Errorf("unpack: %v", err)
		return nil
	}
	return out
}

func TestEagerSendRecv(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			sendInts(t, d, pids[1], 7, []int32{1, 2, 3})
		} else {
			got := recvInts(t, d, pids[0], 7, 3)
			if len(got) == 3 && (got[0] != 1 || got[2] != 3) {
				t.Errorf("got %v", got)
			}
		}
	})
}

func TestRendezvousLargeMessage(t *testing.T) {
	const n = 100_000 // 400 KB static section > 128 KiB eager limit
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(i)
			}
			sendInts(t, d, pids[1], 1, vals)
		} else {
			got := recvInts(t, d, pids[0], 1, n)
			for i, v := range got {
				if v != int32(i) {
					t.Fatalf("element %d = %d", i, v)
				}
			}
		}
	})
}

func TestRendezvousBeforeRecvPosted(t *testing.T) {
	// RTS arrives before the receive is posted; the user thread sends RTR.
	const n = 80_000
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			vals := make([]int32, n)
			vals[n-1] = 42
			sendInts(t, d, pids[1], 5, vals)
		} else {
			time.Sleep(100 * time.Millisecond) // let the RTS land first
			got := recvInts(t, d, pids[0], 5, n)
			if len(got) == n && got[n-1] != 42 {
				t.Errorf("tail = %d, want 42", got[n-1])
			}
		}
	})
}

func TestEagerBeforeRecvPosted(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			sendInts(t, d, pids[1], 9, []int32{11})
		} else {
			time.Sleep(100 * time.Millisecond)
			got := recvInts(t, d, pids[0], 9, 1)
			if len(got) == 1 && got[0] != 11 {
				t.Errorf("got %v", got)
			}
		}
	})
}

func TestSsendCompletesOnlyAfterMatch(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			buf := mpjbuf.New(16)
			buf.WriteInts([]int32{1}, 0, 1)
			req, err := d.ISsend(buf, pids[1], 3, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if _, ok, _ := req.Test(); ok {
				t.Error("synchronous send completed before receiver matched")
			}
			// Tell rank 1 to post its receive now.
			sendInts(t, d, pids[1], 4, []int32{0})
			if _, err := req.Wait(); err != nil {
				t.Errorf("ssend wait: %v", err)
			}
		} else {
			recvInts(t, d, pids[0], 4, 1) // the go-ahead
			got := recvInts(t, d, pids[0], 3, 1)
			if len(got) == 1 && got[0] != 1 {
				t.Errorf("got %v", got)
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runJob(t, 3, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		switch rank {
		case 1, 2:
			sendInts(t, d, pids[0], 40+rank, []int32{int32(rank)})
		case 0:
			seen := map[int32]bool{}
			for i := 0; i < 2; i++ {
				buf := mpjbuf.New(0)
				st, err := d.Recv(buf, xdev.AnySource, xdev.AnyTag, 0)
				if err != nil {
					t.Error(err)
					return
				}
				out := make([]int32, 1)
				buf.ReadInts(out, 0, 1)
				seen[out[0]] = true
				if int(st.Source.UUID) != int(out[0]) {
					t.Errorf("status source %v does not match payload %d", st.Source, out[0])
				}
				if st.Tag != 40+int(out[0]) {
					t.Errorf("status tag %d, want %d", st.Tag, 40+out[0])
				}
			}
			if !seen[1] || !seen[2] {
				t.Errorf("missing senders: %v", seen)
			}
		}
	})
}

func TestMessageOrderingPreserved(t *testing.T) {
	const msgs = 50
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			for i := 0; i < msgs; i++ {
				sendInts(t, d, pids[1], 6, []int32{int32(i)})
			}
		} else {
			for i := 0; i < msgs; i++ {
				got := recvInts(t, d, pids[0], 6, 1)
				if len(got) == 1 && got[0] != int32(i) {
					t.Fatalf("message %d carried %d (order violated)", i, got[0])
				}
			}
		}
	})
}

func TestSelfSendRecv(t *testing.T) {
	runJob(t, 1, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		req, err := func() (xdev.Request, error) {
			buf := mpjbuf.New(16)
			buf.WriteInts([]int32{99}, 0, 1)
			return d.ISend(buf, pids[0], 2, 0)
		}()
		if err != nil {
			t.Fatal(err)
		}
		got := recvInts(t, d, pids[0], 2, 1)
		if len(got) == 1 && got[0] != 99 {
			t.Errorf("got %v", got)
		}
		if _, err := req.Wait(); err != nil {
			t.Error(err)
		}
	})
}

func TestSelfSsend(t *testing.T) {
	runJob(t, 1, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		buf := mpjbuf.New(16)
		buf.WriteInts([]int32{5}, 0, 1)
		req, err := d.ISsend(buf, pids[0], 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := req.Test(); ok {
			t.Fatal("self ssend completed before match")
		}
		got := recvInts(t, d, pids[0], 2, 1)
		if len(got) == 1 && got[0] != 5 {
			t.Errorf("got %v", got)
		}
		if _, err := req.Wait(); err != nil {
			t.Error(err)
		}
	})
}

func TestProbeAndIProbe(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			sendInts(t, d, pids[1], 13, []int32{1, 2})
		} else {
			st, err := d.Probe(pids[0], 13, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Tag != 13 || st.Source != pids[0] {
				t.Errorf("probe status %+v", st)
			}
			// IProbe must also see it, and probing must not consume.
			if _, ok, _ := d.IProbe(xdev.AnySource, xdev.AnyTag, 0); !ok {
				t.Error("iprobe missed an available message")
			}
			got := recvInts(t, d, pids[0], 13, 2)
			if len(got) == 2 && got[1] != 2 {
				t.Errorf("got %v", got)
			}
			if _, ok, _ := d.IProbe(xdev.AnySource, xdev.AnyTag, 0); ok {
				t.Error("iprobe found a message after it was received")
			}
		}
	})
}

func TestContextSeparation(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			bufA := mpjbuf.New(16)
			bufA.WriteInts([]int32{1}, 0, 1)
			if err := d.Send(bufA, pids[1], 5, 100); err != nil {
				t.Error(err)
			}
			bufB := mpjbuf.New(16)
			bufB.WriteInts([]int32{2}, 0, 1)
			if err := d.Send(bufB, pids[1], 5, 200); err != nil {
				t.Error(err)
			}
		} else {
			// Receive context 200 first even though it was sent second.
			buf := mpjbuf.New(0)
			if _, err := d.Recv(buf, pids[0], 5, 200); err != nil {
				t.Error(err)
				return
			}
			out := make([]int32, 1)
			buf.ReadInts(out, 0, 1)
			if out[0] != 2 {
				t.Errorf("context 200 delivered %d, want 2", out[0])
			}
			buf2 := mpjbuf.New(0)
			if _, err := d.Recv(buf2, pids[0], 5, 100); err != nil {
				t.Error(err)
				return
			}
			buf2.ReadInts(out, 0, 1)
			if out[0] != 1 {
				t.Errorf("context 100 delivered %d, want 1", out[0])
			}
		}
	})
}

func TestBidirectionalLargeSendsNoDeadlock(t *testing.T) {
	// The scenario the paper's forked rendez-write thread exists for:
	// both processes send large messages to each other simultaneously.
	const n = 200_000
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		peer := pids[1-rank]
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(rank)
		}
		buf := mpjbuf.New(n*4 + 16)
		buf.WriteInts(vals, 0, n)
		req, err := d.ISend(buf, peer, 2, 0)
		if err != nil {
			t.Error(err)
			return
		}
		got := recvInts(t, d, peer, 2, n)
		if len(got) == n && got[0] != int32(1-rank) {
			t.Errorf("rank %d got payload from %d", rank, got[0])
		}
		if _, err := req.Wait(); err != nil {
			t.Error(err)
		}
	})
}

func TestManyPendingReceives(t *testing.T) {
	// Paper §VI: MPJ Express can post any number of non-blocking
	// receives, whereas MPJ/Ibis died at ~650 because it spawned a
	// thread per operation. Post 650 wildcard receives, then satisfy
	// them all.
	const n = 650
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			reqs := make([]xdev.Request, n)
			bufs := make([]*mpjbuf.Buffer, n)
			for i := 0; i < n; i++ {
				bufs[i] = mpjbuf.New(0)
				r, err := d.IRecv(bufs[i], xdev.AnySource, i, 0)
				if err != nil {
					t.Fatalf("irecv %d: %v", i, err)
				}
				reqs[i] = r
			}
			// Signal readiness.
			sendInts(t, d, pids[1], 9999, []int32{1})
			for i := 0; i < n; i++ {
				if _, err := reqs[i].Wait(); err != nil {
					t.Fatalf("wait %d: %v", i, err)
				}
				out := make([]int32, 1)
				bufs[i].ReadInts(out, 0, 1)
				if out[0] != int32(i) {
					t.Fatalf("receive %d carried %d", i, out[0])
				}
			}
		} else {
			recvInts(t, d, pids[0], 9999, 1)
			for i := 0; i < n; i++ {
				sendInts(t, d, pids[0], i, []int32{int32(i)})
			}
		}
	})
}

func TestThreadMultipleConcurrentTraffic(t *testing.T) {
	// MPI_THREAD_MULTIPLE (paper §IV-B): many goroutines per process
	// communicate concurrently; message contents are verified on
	// receipt.
	const goroutines = 8
	const perG = 20
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		peer := pids[1-rank]
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					want := int32(g*1000 + i)
					buf := mpjbuf.New(16)
					buf.WriteInts([]int32{want}, 0, 1)
					if err := d.Send(buf, peer, g, 0); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					got := recvInts(t, d, peer, g, 1)
					if len(got) == 1 && got[0] != want {
						t.Errorf("goroutine %d msg %d: got %d, want %d", g, i, got[0], want)
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

func TestProgression(t *testing.T) {
	// The paper's ProgressionTest: one blocked goroutine (a receive
	// that is satisfied only at the very end) must not halt progress of
	// other goroutines in the same process.
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		peer := pids[1-rank]
		if rank == 0 {
			blocked := make(chan struct{})
			go func() {
				defer close(blocked)
				buf := mpjbuf.New(0)
				if _, err := d.Recv(buf, peer, 777, 0); err != nil {
					t.Errorf("blocked recv: %v", err)
				}
			}()
			// While that goroutine blocks, run normal traffic.
			for i := 0; i < 10; i++ {
				buf := mpjbuf.New(16)
				buf.WriteInts([]int32{int32(i)}, 0, 1)
				if err := d.Send(buf, peer, 1, 0); err != nil {
					t.Error(err)
				}
				got := recvInts(t, d, peer, 1, 1)
				if len(got) == 1 && got[0] != int32(i) {
					t.Errorf("round %d: got %d", i, got[0])
				}
			}
			select {
			case <-blocked:
				t.Error("blocked receive completed prematurely")
			default:
			}
			// Tell the peer to release the blocked goroutine.
			buf := mpjbuf.New(16)
			buf.WriteInts([]int32{0}, 0, 1)
			if err := d.Send(buf, peer, 778, 0); err != nil {
				t.Error(err)
			}
			<-blocked
		} else {
			for i := 0; i < 10; i++ {
				got := recvInts(t, d, peer, 1, 1)
				if len(got) == 1 && got[0] != int32(i) {
					t.Errorf("round %d: got %d", i, got[0])
				}
				buf := mpjbuf.New(16)
				buf.WriteInts([]int32{int32(i)}, 0, 1)
				if err := d.Send(buf, peer, 1, 0); err != nil {
					t.Error(err)
				}
			}
			// Wait for the go-ahead, then satisfy the blocked receive.
			recvInts(t, d, peer, 778, 1)
			buf := mpjbuf.New(16)
			buf.WriteInts([]int32{0}, 0, 1)
			if err := d.Send(buf, peer, 777, 0); err != nil {
				t.Error(err)
			}
		}
	})
}

func TestPeekReturnsCompletedRequest(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			buf := mpjbuf.New(0)
			req, err := d.IRecv(buf, pids[1], 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Peek()
			if err != nil {
				t.Fatal(err)
			}
			if got != req {
				t.Error("peek returned a different request")
			}
			if _, ok, _ := got.Test(); !ok {
				t.Error("peeked request is not complete")
			}
		} else {
			sendInts(t, d, pids[0], 3, []int32{1})
		}
	})
}

func TestRequestAttachment(t *testing.T) {
	runJob(t, 1, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		buf := mpjbuf.New(16)
		buf.WriteInts([]int32{1}, 0, 1)
		req, err := d.ISend(buf, pids[0], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if req.Attachment() != nil {
			t.Error("fresh request has attachment")
		}
		req.SetAttachment("hello")
		if req.Attachment() != "hello" {
			t.Error("attachment lost")
		}
		rb := mpjbuf.New(0)
		d.Recv(rb, pids[0], 0, 0)
	})
}

func TestEagerLimitConfigurable(t *testing.T) {
	// With a tiny eager limit, even small messages use rendezvous.
	runJob(t, 2, xdev.Config{EagerLimit: 8}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if d.EagerLimit() != 8 {
			t.Errorf("EagerLimit = %d", d.EagerLimit())
		}
		if rank == 0 {
			sendInts(t, d, pids[1], 2, []int32{1, 2, 3, 4})
		} else {
			got := recvInts(t, d, pids[0], 2, 4)
			if len(got) == 4 && got[3] != 4 {
				t.Errorf("got %v", got)
			}
		}
	})
}

func TestInitValidation(t *testing.T) {
	cases := []xdev.Config{
		{Rank: 0, Size: 0},
		{Rank: -1, Size: 2, Addrs: []string{"a", "b"}},
		{Rank: 2, Size: 2, Addrs: []string{"a", "b"}},
		{Rank: 0, Size: 3, Addrs: []string{"a"}},
	}
	for i, cfg := range cases {
		d := New()
		cfg.Dialer = transport.NewInProc(0)
		if _, err := d.Init(cfg); err == nil {
			t.Errorf("case %d: Init accepted invalid config %+v", i, cfg)
			d.Finish()
		}
	}
}

func TestDoubleInitRejected(t *testing.T) {
	d := New()
	if _, err := d.Init(xdev.Config{Rank: 0, Size: 1}); err != nil {
		t.Fatal(err)
	}
	defer d.Finish()
	if _, err := d.Init(xdev.Config{Rank: 0, Size: 1}); err == nil {
		t.Fatal("second Init accepted")
	}
}

func TestFinishIdempotentAndUnblocksPeek(t *testing.T) {
	d := New()
	if _, err := d.Init(xdev.Config{Rank: 0, Size: 1}); err != nil {
		t.Fatal(err)
	}
	peekErr := make(chan error, 1)
	go func() {
		_, err := d.Peek()
		peekErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal("second Finish errored:", err)
	}
	select {
	case err := <-peekErr:
		if err == nil {
			t.Fatal("peek returned nil error after Finish")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Finish did not unblock Peek")
	}
}

func TestDeviceRegistry(t *testing.T) {
	d, err := xdev.NewInstance(DeviceName)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*Device); !ok {
		t.Fatalf("registry returned %T", d)
	}
	if _, err := xdev.NewInstance("nosuchdev"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestSendToUnknownProcess(t *testing.T) {
	runJob(t, 1, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		buf := mpjbuf.New(16)
		buf.WriteInts([]int32{1}, 0, 1)
		if _, err := d.ISend(buf, xdev.ProcessID{UUID: 99}, 0, 0); err == nil {
			t.Error("send to unknown process accepted")
		}
	})
}

func TestObjectMessage(t *testing.T) {
	runJob(t, 2, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			buf := mpjbuf.New(0)
			if err := buf.WriteObjects([]any{"hello", []float64{1, 2}}, 0, 2); err != nil {
				t.Error(err)
				return
			}
			if err := d.Send(buf, pids[1], 0, 0); err != nil {
				t.Error(err)
			}
		} else {
			buf := mpjbuf.New(0)
			if _, err := d.Recv(buf, pids[0], 0, 0); err != nil {
				t.Error(err)
				return
			}
			objs := make([]any, 2)
			if _, err := buf.ReadObjects(objs, 0, 2); err != nil {
				t.Error(err)
				return
			}
			if objs[0] != "hello" {
				t.Errorf("objs[0] = %v", objs[0])
			}
			if f, ok := objs[1].([]float64); !ok || f[1] != 2 {
				t.Errorf("objs[1] = %#v", objs[1])
			}
		}
	})
}

// TestNoGoroutineLeakAfterFinish checks that Finish joins every
// goroutine the device started — input handlers, and the flushers that
// write queued ACKs, RTRs, rendezvous payloads and revokes — by comparing
// the goroutine count before Init with the count after Finish, for 2-
// and 3-rank jobs that exchanged eager, synchronous, rendezvous and
// revoke traffic.
func TestNoGoroutineLeakAfterFinish(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, n := range []int{2, 3} {
		runJob(t, n, xdev.Config{}, func(d *Device, rank int, pids []xdev.ProcessID) {
			next, prev := pids[(rank+1)%n], pids[(rank+n-1)%n]
			for tag, c := range []struct {
				n     int
				ssend bool
			}{{1, false}, {1, true}, {50_000, false}} {
				buf := mpjbuf.New(0)
				buf.WriteInts(make([]int32, c.n), 0, c.n)
				isend := d.ISend
				if c.ssend {
					isend = d.ISsend
				}
				req, err := isend(buf, next, tag, 0)
				if err != nil {
					t.Error(err)
					return
				}
				recvInts(t, d, prev, tag, c.n)
				if _, err := req.Wait(); err != nil {
					t.Error(err)
				}
			}
			// A revoke flood: rank 0 starts it, every other rank forwards it.
			if rank == 0 {
				d.Revoke(7)
			}
			for deadline := time.Now().Add(5 * time.Second); d.core.CtxErr(7) == nil; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("rank %d never saw the revoke", rank)
					return
				}
			}
		})
	}
	waitGoroutines(t, before)
}

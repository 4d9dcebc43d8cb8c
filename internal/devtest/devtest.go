// Package devtest provides a conformance suite run against every xdev
// device implementation — the product devices (niodev, smpdev,
// hybriddev) and the paper-comparison apparatus (mxdev, ibisdev) —
// checking the semantics the upper layers rely on: matching, ordering,
// wildcards, send modes, probe, thread-multiple safety and (optionally)
// peek.
package devtest

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// JobRunner starts an n-rank job and runs fn once per rank, each on its
// own goroutine, with initialized devices. It must clean up afterwards.
type JobRunner func(t *testing.T, n int, fn func(d xdev.Device, rank int, pids []xdev.ProcessID))

// Runner is the JobRunner every in-process device test uses: each job
// gets n fresh devices from newDev, initialised concurrently with the
// per-rank configs job(t, n) returns (job runs once per job, so it can
// name a fresh group or reserve addresses for all ranks), then fn runs
// once per rank, each on its own goroutine, and the devices are
// finished.
func Runner(newDev func() xdev.Device, job func(t *testing.T, n int) func(rank int) xdev.Config) JobRunner {
	return func(t *testing.T, n int, fn func(d xdev.Device, rank int, pids []xdev.ProcessID)) {
		t.Helper()
		config := job(t, n)
		devs := make([]xdev.Device, n)
		pidLists := make([][]xdev.ProcessID, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			devs[i] = newDev()
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				pidLists[rank], errs[rank] = devs[rank].Init(config(rank))
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
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				fn(devs[rank], rank, pidLists[rank])
			}(i)
		}
		wg.Wait()
	}
}

// Options tailors the suite to device capabilities.
type Options struct {
	// HasPeek enables the completion-queue peek test.
	HasPeek bool
	// LargeN is the element count used for the large-message test
	// (large enough to cross protocol switch points where relevant).
	LargeN int
	// RendezvousAt is the wire-length threshold (bytes) at which the
	// device switches from eager to rendezvous accounting; 0 means the
	// device has no rendezvous path and counts every send as eager.
	RendezvousAt int
	// RelaxedPostedOrder relaxes the posted-receive half of the
	// MatchOrder test: a device that hands receives to polling worker
	// threads (ibisdev) cannot guarantee which of two receives matching
	// the same message was posted into the engine first. The relaxed
	// check still requires both receives to complete with the right
	// message set, just not the strict first-posted assignment.
	RelaxedPostedOrder bool
}

// RunConformance runs the full suite.
func RunConformance(t *testing.T, run JobRunner, opts Options) {
	if opts.LargeN == 0 {
		opts.LargeN = 100_000
	}
	t.Run("SmallMessage", func(t *testing.T) { testSmall(t, run) })
	t.Run("LargeMessage", func(t *testing.T) { testLarge(t, run, opts.LargeN) })
	t.Run("AnySourceAnyTag", func(t *testing.T) { testWildcards(t, run) })
	t.Run("Ordering", func(t *testing.T) { testOrdering(t, run) })
	t.Run("MatchOrder", func(t *testing.T) { testMatchOrder(t, run, opts.RelaxedPostedOrder) })
	t.Run("OrderingAcrossProtocols", func(t *testing.T) { testOrderingAcrossProtocols(t, run, opts.LargeN) })
	t.Run("SsendSynchronous", func(t *testing.T) { testSsend(t, run) })
	t.Run("SsendUnexpected", func(t *testing.T) { testSsendUnexpected(t, run) })
	t.Run("SelfMessage", func(t *testing.T) { testSelf(t, run) })
	t.Run("Probe", func(t *testing.T) { testProbe(t, run) })
	t.Run("ConcurrentTraffic", func(t *testing.T) { testConcurrent(t, run) })
	t.Run("Counters", func(t *testing.T) { testCounters(t, run, opts.RendezvousAt) })
	t.Run("RMA", func(t *testing.T) { testRMA(t, run) })
	t.Run("Attachment", func(t *testing.T) { testAttachment(t, run) })
	if opts.HasPeek {
		t.Run("Peek", func(t *testing.T) { testPeek(t, run) })
	}
}

// RunOpsAfterFinish is the conformance case of a device's lifetime
// edges, run by each product device as its own top-level test so that
// stress runs can name it: a finished device refuses new point-to-point
// operations — ISend, Send, ISsend, Ssend, IRecv, Recv and Peek — with
// an error wrapping xdev.ErrDeviceClosed, and IRecv and Recv do so even
// with a matching message parked unexpected; the same calls on a device
// from newDev that never joined a job return an *xdev.Error and do not
// panic.
func RunOpsAfterFinish(t *testing.T, run JobRunner, newDev func() xdev.Device) {
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			send(t, d, pids[1], 7, []int64{1})
		} else if _, err := d.Probe(pids[0], 7, 0); err != nil {
			t.Errorf("probe: %v", err) // parked unexpected from here on
		}
		if err := d.Finish(); err != nil {
			t.Errorf("rank %d finish: %v", rank, err)
		}
		for op, err := range closedOps(d, pids[1-rank], 7) {
			if !errors.Is(err, xdev.ErrDeviceClosed) {
				t.Errorf("rank %d: %s after Finish: %v, want xdev.ErrDeviceClosed", rank, op, err)
			}
		}
	})
	for op, err := range closedOps(newDev(), xdev.ProcessID{UUID: 0}, 7) {
		var xe *xdev.Error
		if !errors.As(err, &xe) {
			t.Errorf("%s before Init: %v, want an *xdev.Error", op, err)
		}
	}
}

// closedOps calls each operation a closed device must refuse, turning
// a panic into an error, and returns what each returned.
func closedOps(d xdev.Device, peer xdev.ProcessID, tag int) map[string]error {
	msg := mpjbuf.New(16)
	msg.WriteLongs([]int64{1}, 0, 1)
	ops := map[string]func() error{
		"ISend":  func() error { _, err := d.ISend(msg, peer, tag, 0); return err },
		"Send":   func() error { return d.Send(msg, peer, tag, 0) },
		"ISsend": func() error { _, err := d.ISsend(msg, peer, tag, 0); return err },
		"Ssend":  func() error { return d.Ssend(msg, peer, tag, 0) },
		"IRecv":  func() error { _, err := d.IRecv(mpjbuf.New(0), peer, tag, 0); return err },
		"IRecv(ANY_SOURCE)": func() error {
			_, err := d.IRecv(mpjbuf.New(0), xdev.AnySource, xdev.AnyTag, 0)
			return err
		},
		"Recv": func() error { _, err := d.Recv(mpjbuf.New(0), peer, tag, 0); return err },
		"Peek": func() error { _, err := d.Peek(); return err },
	}
	out := make(map[string]error, len(ops))
	for name, op := range ops {
		out[name] = func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
			}()
			return op()
		}()
	}
	return out
}

func send(t *testing.T, d xdev.Device, dst xdev.ProcessID, tag int, vals []int64) {
	t.Helper()
	buf := mpjbuf.New(len(vals)*8 + 16)
	if err := buf.WriteLongs(vals, 0, len(vals)); err != nil {
		t.Errorf("pack: %v", err)
		return
	}
	if err := d.Send(buf, dst, tag, 0); err != nil {
		t.Errorf("send: %v", err)
	}
}

func recv(t *testing.T, d xdev.Device, src xdev.ProcessID, tag, n int) ([]int64, xdev.Status) {
	t.Helper()
	buf := mpjbuf.New(0)
	st, err := d.Recv(buf, src, tag, 0)
	if err != nil {
		t.Errorf("recv: %v", err)
		return nil, st
	}
	out := make([]int64, n)
	if _, err := buf.ReadLongs(out, 0, n); err != nil {
		t.Errorf("unpack: %v", err)
		return nil, st
	}
	return out, st
}

func testSmall(t *testing.T, run JobRunner) {
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			send(t, d, pids[1], 7, []int64{1, 2, 3})
		} else {
			got, st := recv(t, d, pids[0], 7, 3)
			if len(got) == 3 && got[2] != 3 {
				t.Errorf("got %v", got)
			}
			if st.Source != pids[0] || st.Tag != 7 {
				t.Errorf("status %+v", st)
			}
		}
	})
}

func testLarge(t *testing.T, run JobRunner, n int) {
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(i * 3)
			}
			send(t, d, pids[1], 1, vals)
		} else {
			got, _ := recv(t, d, pids[0], 1, n)
			for i, v := range got {
				if v != int64(i*3) {
					t.Fatalf("element %d = %d", i, v)
				}
			}
		}
	})
}

func testWildcards(t *testing.T, run JobRunner) {
	run(t, 3, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		if rank > 0 {
			send(t, d, pids[0], 20+rank, []int64{int64(rank)})
			return
		}
		seen := map[int64]bool{}
		for i := 0; i < 2; i++ {
			got, st := recv(t, d, xdev.AnySource, xdev.AnyTag, 1)
			if len(got) != 1 {
				return
			}
			seen[got[0]] = true
			if st.Tag != 20+int(got[0]) {
				t.Errorf("tag %d for payload %d", st.Tag, got[0])
			}
		}
		if !seen[1] || !seen[2] {
			t.Errorf("senders seen: %v", seen)
		}
	})
}

func testOrdering(t *testing.T, run JobRunner) {
	const msgs = 40
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			for i := 0; i < msgs; i++ {
				send(t, d, pids[1], 4, []int64{int64(i)})
			}
		} else {
			for i := 0; i < msgs; i++ {
				got, _ := recv(t, d, pids[0], 4, 1)
				if len(got) == 1 && got[0] != int64(i) {
					t.Fatalf("message %d carried %d", i, got[0])
				}
			}
		}
	})
}

// testOrderingAcrossProtocols checks MPI's non-overtaking rule across
// the eager/rendezvous boundary: a large (rendezvous) message sent
// before a small (eager) one on the same (source, tag, context) must
// match the earlier-posted receive, even though the small message's
// payload reaches the receiver first.
func testOrderingAcrossProtocols(t *testing.T, run JobRunner, largeN int) {
	if largeN == 0 {
		largeN = 100_000
	}
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			big := make([]int64, largeN)
			for i := range big {
				big[i] = 7
			}
			send(t, d, pids[1], 5, big)        // rendezvous
			send(t, d, pids[1], 5, []int64{1}) // eager, same stream
		} else {
			first, _ := recv(t, d, pids[0], 5, largeN)
			if len(first) == largeN && (first[0] != 7 || first[largeN-1] != 7) {
				t.Errorf("first receive did not get the large message: head=%v", first[0])
			}
			second, _ := recv(t, d, pids[0], 5, 1)
			if len(second) == 1 && second[0] != 1 {
				t.Errorf("second receive got %v, want the small message", second[0])
			}
		}
	})
}

func testSsend(t *testing.T, run JobRunner) {
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			buf := mpjbuf.New(16)
			buf.WriteLongs([]int64{9}, 0, 1)
			req, err := d.ISsend(buf, pids[1], 3, 0)
			if err != nil {
				t.Error(err)
				return
			}
			time.Sleep(20 * time.Millisecond)
			if _, ok, _ := req.Test(); ok {
				t.Error("synchronous send completed before match")
			}
			send(t, d, pids[1], 4, []int64{0}) // go-ahead
			if _, err := req.Wait(); err != nil {
				t.Error(err)
			}
		} else {
			recv(t, d, pids[0], 4, 1)
			got, _ := recv(t, d, pids[0], 3, 1)
			if len(got) == 1 && got[0] != 9 {
				t.Errorf("got %v", got)
			}
		}
	})
}

// testSsendUnexpected: a synchronous send whose message lands in the
// unexpected queue must complete when the receive is finally posted
// (the match-time ACK path).
func testSsendUnexpected(t *testing.T, run JobRunner) {
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			buf := mpjbuf.New(16)
			buf.WriteLongs([]int64{77}, 0, 1)
			req, err := d.ISsend(buf, pids[1], 6, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := req.Wait(); err != nil {
				t.Errorf("ssend wait: %v", err)
			}
		} else {
			// Let the message land unposted first.
			time.Sleep(60 * time.Millisecond)
			got, _ := recv(t, d, pids[0], 6, 1)
			if len(got) == 1 && got[0] != 77 {
				t.Errorf("got %v", got)
			}
		}
	})
}

func testSelf(t *testing.T, run JobRunner) {
	run(t, 1, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		buf := mpjbuf.New(16)
		buf.WriteLongs([]int64{5}, 0, 1)
		req, err := d.ISend(buf, pids[0], 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := recv(t, d, pids[0], 2, 1)
		if len(got) == 1 && got[0] != 5 {
			t.Errorf("got %v", got)
		}
		if _, err := req.Wait(); err != nil {
			t.Error(err)
		}
	})
}

func testProbe(t *testing.T, run JobRunner) {
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		if rank == 0 {
			send(t, d, pids[1], 11, []int64{1, 2})
		} else {
			st, err := d.Probe(pids[0], 11, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Tag != 11 {
				t.Errorf("probe tag %d", st.Tag)
			}
			if _, ok, _ := d.IProbe(xdev.AnySource, 11, 0); !ok {
				t.Error("iprobe missed available message")
			}
			recv(t, d, pids[0], 11, 2)
			if _, ok, _ := d.IProbe(xdev.AnySource, 11, 0); ok {
				t.Error("iprobe saw consumed message")
			}
		}
	})
}

func testConcurrent(t *testing.T, run JobRunner) {
	const goroutines = 6
	const per = 15
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		peer := pids[1-rank]
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					want := int64(g*100 + i)
					buf := mpjbuf.New(16)
					buf.WriteLongs([]int64{want}, 0, 1)
					if err := d.Send(buf, peer, g, 0); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					got, _ := recv(t, d, peer, g, 1)
					if len(got) == 1 && got[0] != want {
						t.Errorf("g%d i%d: got %d want %d", g, i, got[0], want)
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// testMatchOrder checks the two halves of the MPI matching rule
// (non-overtaking, MPI 3.1 §3.5) that the shared progress core
// implements:
//
//   - among posted receives, the first *posted* match wins, even when
//     the candidates live in different wildcard buckets of the four-key
//     engine (an any-tag receive posted before a concrete-tag receive
//     takes the first message);
//   - among unexpected messages, the first *arrived* match wins: a
//     wildcard receive consumes parked messages in arrival order.
func testMatchOrder(t *testing.T, run JobRunner, relaxedPosted bool) {
	t.Run("PostedOrder", func(t *testing.T) {
		run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
			if rank == 0 {
				// Go-ahead: both receives are posted on rank 1.
				recv(t, d, pids[1], 99, 1)
				send(t, d, pids[1], 5, []int64{1})
				send(t, d, pids[1], 5, []int64{2})
				return
			}
			b1 := mpjbuf.New(0)
			b2 := mpjbuf.New(0)
			r1, err := d.IRecv(b1, pids[0], xdev.AnyTag, 0)
			if err != nil {
				t.Errorf("irecv any-tag: %v", err)
				return
			}
			r2, err := d.IRecv(b2, pids[0], 5, 0)
			if err != nil {
				t.Errorf("irecv tag 5: %v", err)
				return
			}
			send(t, d, pids[0], 99, []int64{0})
			st1, err := r1.Wait()
			if err != nil {
				t.Errorf("wait any-tag: %v", err)
				return
			}
			if _, err := r2.Wait(); err != nil {
				t.Errorf("wait tag 5: %v", err)
				return
			}
			if st1.Tag != 5 {
				t.Errorf("any-tag receive reported tag %d", st1.Tag)
			}
			var p1, p2 [1]int64
			if _, err := b1.ReadLongs(p1[:], 0, 1); err != nil {
				t.Errorf("unpack r1: %v", err)
				return
			}
			if _, err := b2.ReadLongs(p2[:], 0, 1); err != nil {
				t.Errorf("unpack r2: %v", err)
				return
			}
			if relaxedPosted {
				if !(p1[0] == 1 && p2[0] == 2) && !(p1[0] == 2 && p2[0] == 1) {
					t.Errorf("payloads (%d, %d), want {1, 2} in some order", p1[0], p2[0])
				}
				return
			}
			if p1[0] != 1 || p2[0] != 2 {
				t.Errorf("first-posted receive got %d, second got %d; want 1, 2", p1[0], p2[0])
			}
		})
	})
	t.Run("ArrivalOrder", func(t *testing.T) {
		run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
			if rank == 0 {
				send(t, d, pids[1], 7, []int64{1})
				send(t, d, pids[1], 8, []int64{2})
				return
			}
			// Park both messages unexpected before receiving anything.
			deadline := time.Now().Add(10 * time.Second)
			for {
				_, ok7, err7 := d.IProbe(pids[0], 7, 0)
				_, ok8, err8 := d.IProbe(pids[0], 8, 0)
				if err7 != nil || err8 != nil {
					t.Errorf("iprobe: %v / %v", err7, err8)
					return
				}
				if ok7 && ok8 {
					break
				}
				if time.Now().After(deadline) {
					t.Error("messages never both arrived")
					return
				}
				time.Sleep(time.Millisecond)
			}
			got1, st1 := recv(t, d, pids[0], xdev.AnyTag, 1)
			got2, st2 := recv(t, d, pids[0], xdev.AnyTag, 1)
			if len(got1) != 1 || len(got2) != 1 {
				return
			}
			if st1.Tag != 7 || got1[0] != 1 {
				t.Errorf("first wildcard receive got tag %d payload %d, want tag 7 payload 1", st1.Tag, got1[0])
			}
			if st2.Tag != 8 || got2[0] != 2 {
				t.Errorf("second wildcard receive got tag %d payload %d, want tag 8 payload 2", st2.Tag, got2[0])
			}
		})
	})
}

// testCounters runs a fixed message script — K unexpected eager sends,
// then N eager and M rendezvous sends into pre-posted receives — and
// asserts every device reports the same mpe counters for it:
//
//	rank 0 (sender):   EagerSent = K+N, RndvSent = M (all eager when
//	                   the device has no rendezvous path), plus the
//	                   matched go-ahead receive;
//	rank 1 (receiver): Unexpected = K, Matched = N+M, EagerSent = 1.
//
// Matched/Unexpected count the arrival-time matching decision; a
// parked unexpected message consumed by a later receive does not
// become Matched. This is the cross-device contract mpjtrace's
// summaries rely on.
func testCounters(t *testing.T, run JobRunner, rendezvousAt int) {
	const (
		nEager      = 3
		mRndv       = 2
		kUnexpected = 2
	)
	smallVals := []int64{1, 2, 3}
	largeElems := 32 << 10 // 256 KiB payload
	if rendezvousAt > 0 {
		largeElems = rendezvousAt / 8 * 2 // safely past the switch point
	}
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		src, ok := d.(mpe.StatsSource)
		if !ok {
			t.Errorf("device %T does not expose Stats()", d)
			return
		}
		if rank == 0 {
			for i := 0; i < kUnexpected; i++ {
				send(t, d, pids[1], 100+i, smallVals)
			}
			recv(t, d, pids[1], 99, 1) // go-ahead: receives are posted
			for i := 0; i < nEager; i++ {
				send(t, d, pids[1], i, smallVals)
			}
			big := make([]int64, largeElems)
			for i := 0; i < mRndv; i++ {
				send(t, d, pids[1], 10+i, big)
			}
			st := src.Stats()
			wantEager, wantRndv := uint64(kUnexpected+nEager), uint64(mRndv)
			if rendezvousAt == 0 {
				wantEager, wantRndv = wantEager+wantRndv, 0
			}
			if st.EagerSent != wantEager || st.RndvSent != wantRndv {
				t.Errorf("rank 0 sends: eager=%d rndv=%d, want eager=%d rndv=%d",
					st.EagerSent, st.RndvSent, wantEager, wantRndv)
			}
			if st.BytesSent == 0 {
				t.Error("rank 0: BytesSent = 0")
			}
			if st.Matched != 1 || st.Unexpected != 0 {
				t.Errorf("rank 0 matching: matched=%d unexpected=%d, want the go-ahead matched",
					st.Matched, st.Unexpected)
			}
			return
		}
		// Rank 1: wait for the K messages to arrive unposted.
		for i := 0; i < kUnexpected; i++ {
			for {
				_, ok, err := d.IProbe(pids[0], 100+i, 0)
				if err != nil {
					t.Errorf("iprobe: %v", err)
					return
				}
				if ok {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		// Post the N+M receives, let them register, then release the
		// sender so their messages arrive matched.
		var wg sync.WaitGroup
		post := func(tag, n int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				recv(t, d, pids[0], tag, n)
			}()
		}
		for i := 0; i < nEager; i++ {
			post(i, len(smallVals))
		}
		for i := 0; i < mRndv; i++ {
			post(10+i, largeElems)
		}
		time.Sleep(100 * time.Millisecond)
		send(t, d, pids[0], 99, []int64{0})
		wg.Wait()
		// Consuming the parked unexpected messages must not count as
		// Matched.
		for i := 0; i < kUnexpected; i++ {
			recv(t, d, pids[0], 100+i, len(smallVals))
		}
		st := src.Stats()
		if st.Unexpected != kUnexpected {
			t.Errorf("rank 1: unexpected=%d, want %d", st.Unexpected, kUnexpected)
		}
		if st.Matched != nEager+mRndv {
			t.Errorf("rank 1: matched=%d, want %d", st.Matched, nEager+mRndv)
		}
		if st.EagerSent != 1 {
			t.Errorf("rank 1: eagerSent=%d, want 1 (the go-ahead)", st.EagerSent)
		}
	})
}

// testAttachment checks the attachment contract mpjdev's Waitany relies
// on: a value reads back, nil clears it, and a later value may be of
// another type.
func testAttachment(t *testing.T, run JobRunner) {
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		if rank == 1 {
			send(t, d, pids[0], 4, []int64{1})
			return
		}
		buf := mpjbuf.New(0)
		req, err := d.IRecv(buf, pids[1], 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		v := new(int)
		req.SetAttachment(v)
		if got := req.Attachment(); got != v {
			t.Errorf("attachment = %v, want the stored pointer", got)
		}
		req.SetAttachment(nil)
		if got := req.Attachment(); got != nil {
			t.Errorf("attachment = %v after clearing", got)
		}
		req.SetAttachment("another type")
		if _, err := req.Wait(); err != nil {
			t.Error(err)
		}
	})
}

func testPeek(t *testing.T, run JobRunner) {
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
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
		} else {
			send(t, d, pids[0], 3, []int64{1})
		}
	})
}

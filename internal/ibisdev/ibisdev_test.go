package ibisdev

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mpj/internal/devtest"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

var groupCounter atomic.Int64

var runner = devtest.Runner(func() xdev.Device { return New() },
	func(t *testing.T, n int) func(int) xdev.Config {
		group := fmt.Sprintf("ibisdev-test-%d", groupCounter.Add(1))
		return func(rank int) xdev.Config { return xdev.Config{Rank: rank, Size: n, Group: group} }
	})

func TestConformance(t *testing.T) {
	// RelaxedPostedOrder: receives are serviced by polling worker
	// threads, so which of two same-matching receives reaches the
	// progress engine first is not the posting order.
	devtest.RunConformance(t, runner, devtest.Options{HasPeek: false, RelaxedPostedOrder: true})
}

func TestOpsAfterFinish(t *testing.T) {
	devtest.RunOpsAfterFinish(t, runner, func() xdev.Device { return New() })
}

// TestThreadCeiling reproduces the paper's §VI observation: MPJ/Ibis
// fails with "cannot create native threads" when ~650 receives are
// outstanding, because it starts a thread per operation.
func TestThreadCeiling(t *testing.T) {
	runner(t, 1, func(xd xdev.Device, rank int, pids []xdev.ProcessID) {
		d := xd.(*Device)
		var reqs []xdev.Request
		var failedAt int
		for i := 0; i < 650; i++ {
			buf := mpjbuf.New(0)
			r, err := d.IRecv(buf, xdev.AnySource, i, 0)
			if err != nil {
				failedAt = i
				if !strings.Contains(err.Error(), "native thread") {
					t.Fatalf("unexpected error text: %v", err)
				}
				break
			}
			reqs = append(reqs, r)
		}
		if failedAt == 0 {
			t.Fatalf("posted 650 receives without hitting the thread ceiling (active=%d)", d.ActiveThreads())
		}
		if failedAt != DefaultMaxThreads {
			t.Fatalf("failed at %d, expected the ceiling %d", failedAt, DefaultMaxThreads)
		}
		// Satisfy the outstanding receives so workers exit.
		for i := 0; i < failedAt; i++ {
			buf := mpjbuf.New(16)
			buf.WriteLongs([]int64{int64(i)}, 0, 1)
			if err := d.Send(buf, pids[0], i, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range reqs {
			if _, err := r.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestRaisedCeilingAllowsMore(t *testing.T) {
	runner(t, 1, func(xd xdev.Device, rank int, pids []xdev.ProcessID) {
		d := xd.(*Device)
		d.SetMaxThreads(2000)
		var reqs []xdev.Request
		for i := 0; i < 700; i++ {
			buf := mpjbuf.New(0)
			r, err := d.IRecv(buf, pids[0], i, 0)
			if err != nil {
				t.Fatalf("irecv %d: %v", i, err)
			}
			reqs = append(reqs, r)
		}
		for i := 0; i < 700; i++ {
			buf := mpjbuf.New(16)
			buf.WriteLongs([]int64{1}, 0, 1)
			if err := d.Send(buf, pids[0], i, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range reqs {
			if _, err := r.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if d.ActiveThreads() != 0 {
			t.Fatalf("threads leaked: %d", d.ActiveThreads())
		}
	})
}

func TestPeekUnsupported(t *testing.T) {
	runner(t, 1, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		if _, err := d.Peek(); err == nil {
			t.Error("Peek should be unsupported on ibisdev")
		}
	})
}

func TestThreadsReleasedOnSend(t *testing.T) {
	runner(t, 2, func(xd xdev.Device, rank int, pids []xdev.ProcessID) {
		d := xd.(*Device)
		if rank == 0 {
			for i := 0; i < 20; i++ {
				buf := mpjbuf.New(16)
				buf.WriteLongs([]int64{int64(i)}, 0, 1)
				r, err := d.ISend(buf, pids[1], 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if d.ActiveThreads() != 0 {
				t.Errorf("send workers leaked: %d", d.ActiveThreads())
			}
		} else {
			for i := 0; i < 20; i++ {
				buf := mpjbuf.New(0)
				if _, err := d.Recv(buf, pids[0], 0, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestChaosConformance runs the shared failure-semantics suite:
// blocked calls must fail typed, not hang, under Finish and peer death.
func TestChaosConformance(t *testing.T) {
	devtest.RunChaos(t, runner, devtest.ChaosOptions{HasPeek: false})
}

// TestRecoveryConformance runs the survivor-continues recovery suite:
// kill a rank mid-operation, then Revoke/Shrink/Agree/Restore.
func TestRecoveryConformance(t *testing.T) {
	devtest.RunRecovery(t, runner)
}

// TestUserMemoryConformance: a polling receive worker probes before it
// receives, so no receive is ever posted ahead of its message and every
// message takes smpdev's unexpected path: staged out, loaded in.
func TestUserMemoryConformance(t *testing.T) {
	devtest.RunUserMemory(t, runner, devtest.UserMemOptions{PostedCopies: 2})
}

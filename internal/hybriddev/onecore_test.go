package hybriddev

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mpj/internal/mpjbuf"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// initJob initialises an in-process colocated hybrid job with the given
// placement over tr, for tests that drive every rank from one goroutine.
func initJob(t *testing.T, nodeOf []int, tr xdev.Transport) ([]*Device, []xdev.ProcessID) {
	t.Helper()
	n := len(nodeOf)
	job := jobCounter.Add(1)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("hyb-job-%d-rank-%d", job, i)
	}
	devs := make([]*Device, n)
	pids := make([][]xdev.ProcessID, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := range devs {
		devs[rank] = New()
		cfg := xdev.Config{
			Rank: rank, Size: n, Addrs: addrs, Dialer: tr,
			Group: fmt.Sprintf("hyb-job-%d", job), NodeOf: nodeOf, Colocated: true,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pids[rank], errs[rank] = devs[rank].Init(cfg)
		}()
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, d := range devs {
			d.Finish()
		}
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d init: %v", rank, err)
		}
	}
	return devs, pids[0]
}

// message packs a 512 B payload.
func message(t *testing.T) *mpjbuf.Buffer {
	t.Helper()
	msg := mpjbuf.New(0)
	if err := msg.WriteBytes(make([]byte, 512), 0, 512); err != nil {
		t.Fatal(err)
	}
	return msg
}

// TestBlockingAllocs pins the node-local blocking path of a rank that
// also has a remote peer (placement 0,1,0: rank 0 shares a node with
// rank 2, not with rank 1) at zero allocations: a blocking Send from
// rank 2, then rank 0's blocking Recv, which finds the message parked
// in the rank's one core whether it names ANY_SOURCE or rank 2.
func TestBlockingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts only hold in normal builds")
	}
	devs, pids := initJob(t, []int{0, 1, 0}, transport.NewInProc(0))
	msg, rb := message(t), mpjbuf.New(0)
	for _, c := range []struct {
		name string
		src  xdev.ProcessID
	}{
		{"ANY_SOURCE", xdev.AnySource},
		{"specific source", pids[2]},
	} {
		cycle := func() {
			if err := devs[2].Send(msg, pids[0], 1, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := devs[0].Recv(rb, c.src, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			cycle() // warm the pools and the match sets
		}
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("node-local Send, then %s Recv: %.1f allocations per message, want 0", c.name, n)
		}
	}
}

// TestStatsCountedOnce: both transports count into the one core, and
// Stats reads it once — k sends to a node-local peer and k to a remote
// one are 2k eager sends, not 4k.
func TestStatsCountedOnce(t *testing.T) {
	const k = 5
	devs, pids := initJob(t, []int{0, 1, 0, 1}, transport.NewInProc(0))
	msg := message(t)
	for i := 0; i < k; i++ {
		for _, dst := range []xdev.ProcessID{pids[2], pids[1]} {
			if err := devs[0].Send(msg, dst, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := devs[0].Stats().EagerSent; got != 2*k {
		t.Fatalf("Stats().EagerSent = %d after %d local and %d remote sends, want %d", got, k, k, 2*k)
	}
}

// TestRemoteSendsOutliveFinish: eager messages a rank sent to a peer on
// another node before it finished are still delivered once the peer
// sees it gone. Its departure reaches the peer behind those frames (the
// wire's bye), never ahead of them through shared memory.
func TestRemoteSendsOutliveFinish(t *testing.T) {
	const k = 32
	devs, pids := initJob(t, []int{0, 1}, transport.NewInProc(0))
	msg := message(t)
	for i := 0; i < k; i++ {
		if err := devs[0].Send(msg, pids[1], i, 0); err != nil {
			t.Fatal(err)
		}
	}
	devs[0].Finish()
	deadline := time.Now().Add(10 * time.Second)
	for devs[1].PeerErr(pids[0]) == nil {
		if time.Now().After(deadline) {
			t.Fatal("rank 1 never saw rank 0 leave")
		}
		time.Sleep(time.Millisecond)
	}
	rb := mpjbuf.New(0)
	for i := 0; i < k; i++ {
		if _, err := devs[1].Recv(rb, pids[0], i, 0); err != nil {
			t.Fatalf("message %d sent before Finish: %v", i, err)
		}
	}
}

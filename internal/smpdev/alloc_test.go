package smpdev

import (
	"fmt"
	"testing"

	"mpj/internal/devcore"
	"mpj/internal/match"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// initPair initialises ranks 0 and 1 of a two-rank group, for tests that
// drive both ends from one goroutine.
func initPair(t *testing.T) (d0, d1 *Device, pids []xdev.ProcessID) {
	t.Helper()
	group := fmt.Sprintf("smpdev-pair-%d", groupCounter.Add(1))
	d0, d1 = New(), New()
	done := make(chan error, 1)
	go func() {
		_, err := d1.Init(xdev.Config{Rank: 1, Size: 2, Group: group})
		done <- err
	}()
	pids, err := d0.Init(xdev.Config{Rank: 0, Size: 2, Group: group})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d0.Finish()
		d1.Finish()
	})
	return d0, d1, pids
}

// TestBlockingAllocs pins the steady-state blocking point-to-point path
// at zero allocations: a blocking 512 B Send that parks its message
// (pooled request, wire copy, arrival and match entry), a blocking Recv
// that finds it unexpected, and a blocking Recv posted first that the
// Send completes before Wait could park — Recv in its two halves, a
// pooled request posted straight into the core, then Wait. A Recv that
// does park allocates its wake channel.
func TestBlockingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts only hold in normal builds")
	}
	d0, d1, pids := initPair(t)
	msg := mpjbuf.New(0)
	if err := msg.WriteBytes(make([]byte, 512), 0, 512); err != nil {
		t.Fatal(err)
	}
	rb := mpjbuf.New(0)
	send := func() {
		if err := d0.Send(msg, pids[1], 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"send, then unexpected recv", func() {
			send()
			if _, err := d1.Recv(rb, pids[0], 1, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"posted recv, then send", func() {
			r := d1.Core().NewBlockingRequest(devcore.RecvReq, rb)
			if a, err := d1.Core().PostRecv(match.Pattern{Ctx: 0, Tag: 1, Src: pids[0].UUID}, r, nil); err != nil || a != nil {
				t.Fatalf("PostRecv = %v, %v; want the receive posted", a, err)
			}
			send()
			if !r.Done() {
				t.Fatal("the send did not complete the posted receive")
			}
			if _, err := r.Wait(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		for i := 0; i < 8; i++ {
			c.cycle() // warm the pools and the match sets
		}
		if n := testing.AllocsPerRun(100, c.cycle); n != 0 {
			t.Errorf("%s: %.1f allocations per message, want 0", c.name, n)
		}
	}
}

package mpj

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"mpj/internal/mpe"
)

// TestRMAFramesStayEager has two ranks Get 150 KiB from each other at a
// 16 KiB eager limit, over niodev and over hybrid with each rank on its
// own node. A window's handler answers a Get with a reply frame; if
// that frame took the rendezvous protocol, each handler would wait for
// the other to receive while itself blocked sending, and the job would
// hang. So the segment must shrink with the limit: every frame of the
// window is eager (RndvSent does not move) and the job finishes.
func TestRMAFramesStayEager(t *testing.T) {
	const (
		winBytes = 200 << 10
		getBytes = 150 << 10
		rounds   = 20
	)
	for _, opts := range []Options{
		{Device: "niodev", EagerLimit: 16 << 10},
		{Device: "hybrid", NodeMap: "0,1", EagerLimit: 16 << 10},
	} {
		t.Run(opts.Device, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				done <- RunLocalOpts(2, &opts, func(p *Process) error {
					w := p.World()
					stats := p.Device().(mpe.StatsSource)
					before := stats.Stats()
					region := make([]byte, winBytes)
					for i := range region {
						region[i] = byte(w.Rank()*7 + i)
					}
					win, err := w.WinCreate(region)
					if err != nil {
						return err
					}
					peer := 1 - w.Rank()
					want := make([]byte, getBytes)
					for i := range want {
						want[i] = byte(peer*7 + i)
					}
					got := make([]byte, getBytes)
					for r := 0; r < rounds; r++ {
						if err := win.Get(got, peer, 0); err != nil {
							return err
						}
						if err := win.Fence(); err != nil {
							return err
						}
						if !bytes.Equal(got, want) {
							return fmt.Errorf("round %d: Get returned the wrong bytes", r)
						}
					}
					if err := win.Free(); err != nil {
						return err
					}
					after := stats.Stats()
					if n := after.RndvSent - before.RndvSent; n != 0 {
						return fmt.Errorf("%d frames took the rendezvous protocol", n)
					}
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("mutual 150 KiB Get at a 16 KiB eager limit hung for 20 s")
			}
		})
	}
}

// TestWinCreateRejectsTinyEagerLimit: an eager limit too small to carry
// a frame with 8 payload bytes fails WinCreate with an error that names
// the limit, instead of sending frames that could only go rendezvous.
func TestWinCreateRejectsTinyEagerLimit(t *testing.T) {
	err := RunLocalOpts(2, &Options{Device: "niodev", EagerLimit: 64}, func(p *Process) error {
		_, err := p.World().WinCreate(make([]byte, 64))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "eager limit of 64 bytes") {
		t.Fatalf("WinCreate at a 64-byte eager limit: %v, want an error naming the limit", err)
	}
}

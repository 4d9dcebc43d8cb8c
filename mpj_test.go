package mpj

import (
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"testing"
)

func TestRunLocalAllreduce(t *testing.T) {
	err := RunLocal(4, func(p *Process) error {
		w := p.World()
		sum := make([]int64, 1)
		if err := w.Allreduce([]int64{int64(w.Rank())}, 0, sum, 0, 1, LONG, SUM); err != nil {
			return err
		}
		if sum[0] != 6 {
			return fmt.Errorf("rank %d: sum = %d", w.Rank(), sum[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunLocalEveryDevice(t *testing.T) {
	for _, dev := range []string{"niodev", "mxdev", "smpdev", "ibisdev"} {
		dev := dev
		t.Run(dev, func(t *testing.T) {
			err := RunLocalOpts(3, &Options{Device: dev}, func(p *Process) error {
				w := p.World()
				buf := make([]int32, 1)
				if w.Rank() == 0 {
					buf[0] = 42
				}
				if err := w.Bcast(buf, 0, 1, INT, 0); err != nil {
					return err
				}
				if buf[0] != 42 {
					return fmt.Errorf("rank %d: bcast got %d", w.Rank(), buf[0])
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunLocalSingleRank(t *testing.T) {
	if err := RunLocal(1, func(p *Process) error {
		if p.Size() != 1 || p.Rank() != 0 {
			return fmt.Errorf("rank/size %d/%d", p.Rank(), p.Size())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLocalPropagatesBodyError(t *testing.T) {
	err := RunLocal(2, func(p *Process) error {
		if p.Rank() == 1 {
			return fmt.Errorf("deliberate failure")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunLocalRecoversPanic(t *testing.T) {
	err := RunLocal(2, func(p *Process) error {
		if p.Rank() == 0 {
			// Drain the message rank 1 sends before panicking, so the
			// job isn't wedged.
			buf := make([]int32, 1)
			p.World().Recv(buf, 0, 1, INT, 1, 0)
			panic("boom")
		}
		return p.World().Send([]int32{1}, 0, 1, INT, 0, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunLocalRejectsBadConfig(t *testing.T) {
	if err := RunLocal(0, func(p *Process) error { return nil }); err == nil {
		t.Error("0 ranks accepted")
	}
	if err := RunLocalOpts(1, &Options{Device: "nosuch"}, func(p *Process) error { return nil }); err == nil {
		t.Error("unknown device accepted")
	}
}

// TestDevicesList sees the apparatus devices too: the root test binary
// links them (apparatus_test.go).
func TestDevicesList(t *testing.T) {
	devs := Devices()
	want := []string{"hybrid", "ibisdev", "mxdev", "niodev", "smpdev"}
	for _, w := range want {
		found := false
		for _, d := range devs {
			if d == w {
				found = true
			}
		}
		if !found {
			t.Errorf("device %q not registered (have %v)", w, devs)
		}
	}
}

// TestProductLinksOnlyProductDevices keeps the paper-comparison
// apparatus out of the product: the mpj package links niodev, smpdev
// and hybriddev, and none of the simulated devices, fabric models or
// experiments.
func TestProductLinksOnlyProductDevices(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "mpj").Output()
	if err != nil {
		t.Fatalf("go list -deps mpj: %v", err)
	}
	deps := make(map[string]bool)
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	for _, p := range []string{"ibisdev", "mxdev", "mxsim", "netsim", "perfmodel", "expt"} {
		if deps["mpj/internal/"+p] {
			t.Errorf("product package links apparatus mpj/internal/%s", p)
		}
	}
	for _, p := range []string{"niodev", "smpdev", "hybriddev"} {
		if !deps["mpj/internal/"+p] {
			t.Errorf("product package does not link mpj/internal/%s", p)
		}
	}
}

func TestPublicWaitAnyOverlap(t *testing.T) {
	// The §V-A pattern at the public API: post wildcard receives, do
	// other work, then collect with WaitAny.
	err := RunLocal(2, func(p *Process) error {
		w := p.World()
		const k = 5
		if w.Rank() == 0 {
			reqs := make([]*Request, k)
			bufs := make([][]int64, k)
			for i := 0; i < k; i++ {
				bufs[i] = make([]int64, 1)
				r, err := w.Irecv(bufs[i], 0, 1, LONG, AnySource, i)
				if err != nil {
					return err
				}
				reqs[i] = r
			}
			remaining := k
			for remaining > 0 {
				idx, st, err := WaitAny(reqs)
				if err != nil {
					return err
				}
				if st.Tag != idx {
					return fmt.Errorf("tag %d at index %d", st.Tag, idx)
				}
				if bufs[idx][0] != int64(idx*3) {
					return fmt.Errorf("payload %d at index %d", bufs[idx][0], idx)
				}
				reqs[idx] = nil
				remaining--
			}
			return nil
		}
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				w.Send([]int64{int64(i * 3)}, 0, 1, LONG, 0, i)
			}(i)
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunLocalManyRanks(t *testing.T) {
	const n = 12
	err := RunLocal(n, func(p *Process) error {
		w := p.World()
		out := make([]int32, n)
		if err := w.Allgather([]int32{int32(w.Rank())}, 0, 1, INT, out, 0, 1, INT); err != nil {
			return err
		}
		for i := range out {
			if out[i] != int32(i) {
				return fmt.Errorf("allgather %v", out)
			}
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestLargeMessageSteadyStateAllocs pins the large-message path's
// storage: a 1 MiB or 4 MiB DOUBLE ping-pong — blocking, and
// Isend/Irecv/Wait — allocates under 4 KiB per op over the
// shared-memory device and over niodev's rendezvous protocol. The
// contiguous exchanges move between the user arrays and need no
// message-sized storage at all; the strided one takes the packed path,
// which must find its slab in the byte store once that holds one of the
// message's class. Both ranks share the process, so the figure covers
// sender and receiver.
func TestLargeMessageSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	// A collection empties the store and the next message would
	// allocate its slab again — amortised in a real run, noise here.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// AllocsPerRun measures on one P; switching to it only then would
	// discard the pools the warm-up filled.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20

	blocking := func(w *Intracomm, out, in []float64, peer int) error {
		if w.Rank() == 0 {
			if err := w.Send(out, 0, len(out), DOUBLE, peer, 1); err != nil {
				return err
			}
			_, err := w.Recv(in, 0, len(in), DOUBLE, peer, 1)
			return err
		}
		if _, err := w.Recv(in, 0, len(in), DOUBLE, peer, 1); err != nil {
			return err
		}
		return w.Send(out, 0, len(out), DOUBLE, peer, 1)
	}
	nonblocking := func(w *Intracomm, out, in []float64, peer int) error {
		rreq, err := w.Irecv(in, 0, len(in), DOUBLE, peer, 2)
		if err != nil {
			return err
		}
		if w.Rank() == 1 {
			// Answer only once the ping is in, so the exchange stays a ping-pong.
			if _, err := rreq.Wait(); err != nil {
				return err
			}
		}
		sreq, err := w.Isend(out, 0, len(out), DOUBLE, peer, 2)
		if err != nil {
			return err
		}
		if _, err := sreq.Wait(); err != nil {
			return err
		}
		_, err = rreq.Wait()
		return err
	}

	// Every other element of the arrays: gathered into, and scattered out
	// of, a packed section of half the size.
	vecs := map[int]*Datatype{}
	for _, n := range []int{1 << 17, 1 << 19} {
		vecs[n], _ = DOUBLE.Vector(n/2, 1, 2)
	}
	strided := func(w *Intracomm, out, in []float64, peer int) error {
		vec := vecs[len(out)]
		if w.Rank() == 0 {
			if err := w.Send(out, 0, 1, vec, peer, 3); err != nil {
				return err
			}
			_, err := w.Recv(in, 1, 1, vec, peer, 3)
			return err
		}
		if _, err := w.Recv(in, 1, 1, vec, peer, 3); err != nil {
			return err
		}
		return w.Send(out, 0, 1, vec, peer, 3)
	}

	worlds := map[string]func(func(p *Process, w *Intracomm)){
		"smpdev": func(fn func(p *Process, w *Intracomm)) { runWorld(t, 2, fn) },
		"niodev": func(fn func(p *Process, w *Intracomm)) { runWorldNio(t, 2, 0, fn) },
	}
	for dev, world := range worlds {
		for _, elems := range []int{1 << 17, 1 << 19} {
			for name, op := range map[string]func(*Intracomm, []float64, []float64, int) error{
				"SendRecv": blocking, "IsendIrecvWait": nonblocking, "SendRecvVector": strided,
			} {
				world(func(p *Process, w *Intracomm) {
					peer := 1 - w.Rank()
					out, in := make([]float64, elems), make([]float64, elems)
					for i := range out {
						out[i] = float64(i + w.Rank())
					}
					step := func() {
						if err := op(w, out, in, peer); err != nil {
							t.Errorf("%s %s: %v", dev, name, err)
						}
					}
					for i := 0; i < 4; i++ {
						step() // fill the store and the request pools
					}
					if w.Rank() == 1 {
						for i := 0; i < runs+1; i++ { // AllocsPerRun runs its body runs+1 times
							step()
						}
						return
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					allocs := testing.AllocsPerRun(runs, step)
					runtime.ReadMemStats(&after)
					// One op is one message one way; a step is two.
					perOp := float64(after.TotalAlloc-before.TotalAlloc) / (2 * (runs + 1))
					t.Logf("%s %s %d MiB: %.0f B/op, %.1f allocs/op", dev, name, elems>>17, perOp, allocs/2)
					if perOp >= 4<<10 {
						t.Errorf("%s %s %d MiB: %.0f B/op in steady state, want < 4 KiB", dev, name, elems>>17, perOp)
					}
					if in[elems-1] != float64(elems-2+peer) && in[elems-1] != float64(elems-1+peer) {
						t.Errorf("%s %s: payload corrupted", dev, name)
					}
				})
			}
		}
	}
}

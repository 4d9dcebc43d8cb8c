package core

import (
	"encoding/json"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/ibisdev"
	"mpj/internal/mpe"
	"mpj/internal/xdev"
)

// Collective operands live in the caller's memory: a landing stream
// posts its segments, up to a cap, before any arrives, a contiguous
// Allreduce folds in place in recvbuf with pooled temps, and either
// buffer may alias the other.

// collWorlds are the np=4 jobs these tests run on; the hybrid one spans
// two simulated nodes, so its large collectives go hierarchical.
var collWorlds = map[string]func(t *testing.T, fn func(p *Process, w *Intracomm)){
	"smpdev": func(t *testing.T, fn func(p *Process, w *Intracomm)) { runWorld(t, 4, fn) },
	"niodev": func(t *testing.T, fn func(p *Process, w *Intracomm)) { runWorldNio(t, 4, 0, fn) },
	"hybrid": func(t *testing.T, fn func(p *Process, w *Intracomm)) {
		runHybridWorld(t, 4, []int{0, 0, 1, 1}, func(p *Process, w *Intracomm) error { fn(p, w); return nil })
	},
}

// TestLandingBcastNoUnexpected: a 1 MiB DOUBLE Bcast's receivers post
// their whole segment stream on entry, so once they are all in, no
// segment arrives unexpected — on smpdev, whose sends complete at copy
// time and so are never throttled by a receive window, and on the
// hybrid device's hierarchical tree.
func TestLandingBcastNoUnexpected(t *testing.T) {
	restore := setColl(defaultColl)
	defer restore()
	const elems = 1 << 17
	segs := elems * 8 / defaultColl.segBytes
	for _, dev := range []string{"smpdev", "hybrid"} {
		var unexpected, matched atomic.Uint64
		var mu sync.Mutex
		devs := make([]xdev.Device, 4)
		collWorlds[dev](t, func(p *Process, w *Intracomm) {
			mu.Lock()
			devs[w.Rank()] = p.Device()
			mu.Unlock()
			buf := make([]float64, elems)
			if w.Rank() == 0 {
				for i := range buf {
					buf[i] = float64(i) + 0.5
				}
			}
			// Every barrier message to a rank is received before it leaves
			// the barrier, so the deltas below count Bcast traffic only.
			if err := w.Barrier(); err != nil {
				t.Errorf("%s: Barrier: %v", dev, err)
				return
			}
			stats := p.Device().(mpe.StatsSource)
			before := stats.Stats()
			if w.Rank() == 0 {
				// Start once every receiver has posted its whole stream.
				mu.Lock()
				others := append([]xdev.Device(nil), devs[1:]...)
				mu.Unlock()
				for deadline := time.Now().Add(10 * time.Second); postedRecvs(others) < 3*segs; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Errorf("%s: receivers posted %d segments, want %d", dev, postedRecvs(others), 3*segs)
						break
					}
				}
			}
			if err := w.Bcast(buf, 0, len(buf), DOUBLE, 0); err != nil {
				t.Errorf("%s: Bcast: %v", dev, err)
				return
			}
			after := stats.Stats()
			unexpected.Add(after.Unexpected - before.Unexpected)
			matched.Add(after.Matched - before.Matched)
			if buf[len(buf)-1] != float64(len(buf)-1)+0.5 {
				t.Errorf("%s rank %d: Bcast payload wrong", dev, w.Rank())
			}
		})
		t.Logf("%s: %d arrivals matched a posted receive, %d unexpected", dev, matched.Load(), unexpected.Load())
		if unexpected.Load() != 0 || matched.Load() == 0 {
			t.Errorf("%s: %d unexpected arrivals (%d matched), want 0", dev, unexpected.Load(), matched.Load())
		}
	}
}

// TestLandingStreamsBounded: a landing stream must not post a large
// payload whole. With 1 KiB segments a 1 MiB Bcast is 1024 segments per
// receiver and a Gather of 256 KiB blocks is 768 at the root; on the
// product devices each side holds its sends until the other side's
// posting has settled, and by then no receiver may have more than 64
// receives posted for one collective (landingCap, pinned here as a
// number so that raising the constant fails the test).
func TestLandingStreamsBounded(t *testing.T) {
	restore := setColl(segTuning(1<<10, defaultColl.window))
	defer restore()
	const np, elems, block, maxPosted = 4, 1 << 17, 1 << 15, 64
	for _, dev := range []string{"smpdev", "niodev"} {
		t.Run(dev, func(t *testing.T) {
			var mu sync.Mutex
			devs := make([]xdev.Device, np)
			collWorlds[dev](t, func(p *Process, w *Intracomm) {
				rank := w.Rank()
				mu.Lock()
				devs[rank] = p.Device()
				mu.Unlock()
				if err := w.Barrier(); err != nil {
					t.Errorf("%s: Barrier: %v", dev, err)
					return
				}
				mu.Lock()
				root, others := devs[:1], append([]xdev.Device(nil), devs[1:]...)
				mu.Unlock()
				buf := make([]float64, elems)
				if rank == 0 {
					for i := range buf {
						buf[i] = float64(i) + 0.5
					}
					if n := settledPosted(others); n == 0 || n > (np-1)*maxPosted {
						t.Errorf("%s: Bcast receivers posted %d receives, want 1..%d", dev, n, (np-1)*maxPosted)
					}
				}
				if err := w.Bcast(buf, 0, elems, DOUBLE, 0); err != nil {
					t.Errorf("%s rank %d: Bcast: %v", dev, rank, err)
					return
				}
				if buf[elems-1] != float64(elems-1)+0.5 {
					t.Errorf("%s rank %d: Bcast payload wrong", dev, rank)
				}
				send := make([]float64, block)
				for i := range send {
					send[i] = float64(rank*block + i)
				}
				var recv []float64
				if rank == 0 {
					recv = make([]float64, np*block)
				} else if n := settledPosted(root); rank == 1 && (n == 0 || n > maxPosted) {
					t.Errorf("%s: Gather root posted %d receives, want 1..%d", dev, n, maxPosted)
				}
				if err := w.Gather(send, 0, block, DOUBLE, recv, 0, block, DOUBLE, 0); err != nil {
					t.Errorf("%s rank %d: Gather: %v", dev, rank, err)
					return
				}
				for i, v := range recv {
					if v != float64(i) {
						t.Errorf("%s: Gather: recv[%d] = %v, want %d", dev, i, v, i)
						return
					}
				}
			})
		})
	}
}

// settledPosted polls the devices' posted-receive depth until it is
// non-zero and has held still for 5 ms (10 s at most), and returns it.
func settledPosted(devs []xdev.Device) int {
	last, since := -1, time.Now()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n := postedRecvs(devs); n != last {
			last, since = n, time.Now()
		} else if n > 0 && time.Since(since) >= 5*time.Millisecond {
			break
		}
	}
	return last
}

// TestLandingStreamsBoundedOnIbisdev: ibisdev runs one thread per
// posted receive and refuses more than DefaultMaxThreads, so a landing
// stream must not post a large payload whole. With 1 KiB segments a
// 1 MiB Bcast is 1024 segments per receiver and a Gather of 256 KiB
// blocks is 768 at the root; both must succeed.
func TestLandingStreamsBoundedOnIbisdev(t *testing.T) {
	restore := setColl(segTuning(1<<10, defaultColl.window))
	defer restore()
	const np, elems, block = 4, 1 << 17, 1 << 15
	if segs := (np - 1) * block * 8 >> 10; segs <= ibisdev.DefaultMaxThreads {
		t.Fatalf("Gather root receives %d segments, want more than %d", segs, ibisdev.DefaultMaxThreads)
	}
	runWorldOn(t, np, func() xdev.Device { return ibisdev.New() }, func(p *Process, w *Intracomm) {
		rank := w.Rank()
		buf := make([]float64, elems)
		if rank == 0 {
			for i := range buf {
				buf[i] = float64(i) + 0.5
			}
		}
		if err := w.Bcast(buf, 0, elems, DOUBLE, 0); err != nil {
			t.Errorf("rank %d: Bcast: %v", rank, err)
			return
		}
		if buf[elems-1] != float64(elems-1)+0.5 {
			t.Errorf("rank %d: Bcast payload wrong", rank)
		}
		send := make([]float64, block)
		for i := range send {
			send[i] = float64(rank*block + i)
		}
		var recv []float64
		if rank == 0 {
			recv = make([]float64, np*block)
		}
		if err := w.Gather(send, 0, block, DOUBLE, recv, 0, block, DOUBLE, 0); err != nil {
			t.Errorf("rank %d: Gather: %v", rank, err)
			return
		}
		for i, v := range recv {
			if v != float64(i) {
				t.Errorf("Gather: recv[%d] = %v, want %d", i, v, i)
				return
			}
		}
	})
}

// postedRecvs sums the posted-receive depths the devices' introspection
// snapshots report (the hybrid device nests one per transport). The
// snapshots are plain structs, so their JSON round trip cannot fail.
func postedRecvs(devs []xdev.Device) int {
	n := 0
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			if c, ok := v["core"].(map[string]any); ok {
				n += int(c["posted"].(float64))
			}
			for _, e := range v {
				walk(e)
			}
		}
	}
	for _, d := range devs {
		raw, _ := json.Marshal(d.(interface{ Introspect() any }).Introspect())
		var v any
		_ = json.Unmarshal(raw, &v)
		walk(v)
	}
	return n
}

// TestAllreduceSteadyStateAllocs pins the in-place Allreduce: a 256 KiB
// DOUBLE SUM reduces in recvbuf, and its receive rings and stripe temps
// cycle through the byte store, so a steady-state call allocates only
// bookkeeping — under 16 KiB per call per rank, where a staging copy
// of the payload alone is 256 KiB.
func TestAllreduceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	restore := setColl(defaultColl)
	defer restore()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs, elems, np = 20, 32 << 10, 4
	for _, dev := range []string{"smpdev", "hybrid"} {
		collWorlds[dev](t, func(p *Process, w *Intracomm) {
			send, recv := make([]float64, elems), make([]float64, elems)
			for i := range send {
				send[i] = float64(w.Rank()*elems + i)
			}
			step := func() {
				if err := w.Allreduce(send, 0, recv, 0, elems, DOUBLE, SUM); err != nil {
					t.Errorf("%s: Allreduce: %v", dev, err)
				}
			}
			for i := 0; i < 4; i++ {
				step() // fill the store and the request pools
			}
			if w.Rank() != 0 {
				for i := 0; i < runs+1; i++ { // AllocsPerRun runs its body runs+1 times
					step()
				}
				return
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			testing.AllocsPerRun(runs, step)
			runtime.ReadMemStats(&after)
			perRank := float64(after.TotalAlloc-before.TotalAlloc) / (np * (runs + 1))
			t.Logf("%s: %.0f B per call per rank", dev, perRank)
			if perRank >= 16<<10 {
				t.Errorf("%s: %.0f B per call per rank in steady state, want < 16 KiB", dev, perRank)
			}
			if want := float64(np*(np-1)/2*elems + np*7); recv[7] != want {
				t.Errorf("%s: recv[7] = %v, want %v", dev, recv[7], want)
			}
		})
	}
}

// TestAllreduceAliasedBuffers: sendbuf and recvbuf may be one slice, at
// the same offset or overlapping ones, for recursive doubling (small),
// reduce-scatter+allgather (smpdev, niodev) and the hierarchical path
// (hybrid); the result is bit-identical to the unaliased call.
func TestAllreduceAliasedBuffers(t *testing.T) {
	restore := setColl(defaultColl)
	defer restore()
	for dev, world := range collWorlds {
		world(t, func(p *Process, w *Intracomm) {
			for _, count := range []int{100, 32 << 10} {
				contrib := func(buf []float64, off int) []float64 {
					for i := 0; i < count; i++ {
						buf[off+i] = math.Sqrt(float64(w.Rank()*count+i+1)) / 3
					}
					return buf
				}
				ref := make([]float64, count)
				if err := w.Allreduce(contrib(make([]float64, count), 0), 0, ref, 0, count, DOUBLE, SUM); err != nil {
					t.Errorf("%s: reference Allreduce: %v", dev, err)
					return
				}
				const shift = 37
				for _, c := range []struct {
					name       string
					soff, roff int
				}{{"same", 0, 0}, {"send-after-recv", shift, 0}, {"send-before-recv", 0, shift}} {
					buf := contrib(make([]float64, count+shift), c.soff)
					if err := w.Allreduce(buf, c.soff, buf, c.roff, count, DOUBLE, SUM); err != nil {
						t.Errorf("%s %s count %d: %v", dev, c.name, count, err)
						return
					}
					for i, v := range buf[c.roff : c.roff+count] {
						if math.Float64bits(v) != math.Float64bits(ref[i]) {
							t.Errorf("%s %s count %d: elem %d = %v, want %v", dev, c.name, count, i, v, ref[i])
							return
						}
					}
				}
			}
		})
	}
}

// TestReductionBufferMismatchErrors: a result buffer whose element type
// is not the data's is an error from every reduction, not a panic, and
// no rank is left waiting.
func TestReductionBufferMismatchErrors(t *testing.T) {
	vec, _ := DOUBLE.Vector(4, 1, 2)
	runWorld(t, 4, func(p *Process, w *Intracomm) {
		rank := w.Rank()
		send, recv := make([]float64, 16), make([]int32, 16)
		check := func(name string, err error, want bool) {
			if (err != nil) != want {
				t.Errorf("rank %d: %s with []float64 data into []int32: error %v, want error %v", rank, name, err, want)
			}
		}
		check("Allreduce", w.Allreduce(send, 0, recv, 0, 16, DOUBLE, SUM), true)
		check("Allreduce vector", w.Allreduce(send, 0, recv, 0, 2, vec, SUM), true)
		check("Reduce", w.Reduce(send, 0, recv, 0, 16, DOUBLE, SUM, 2), rank == 2)
		check("Scan", w.Scan(send, 0, recv, 0, 16, DOUBLE, SUM), true)
		check("ReduceScatter", w.ReduceScatter(send, 0, recv, 0, []int{4, 4, 4, 4}, DOUBLE, SUM), true)
		check("Barrier after", w.Barrier(), false)
	})
}

package core

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"mpj/internal/hybriddev"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// runHybridWorld runs an n-rank world over the hybrid device with
// a simulated rank→node placement: node-local pairs route over the smp
// inner, cross-node pairs over the in-process niodev wire (full
// framing and protocol). This is the closest a single address space
// gets to a multi-node job, and the harness the flat-vs-hierarchical
// collective comparison runs on.
func runHybridWorld(b testing.TB, n int, nodeOf []int, fn func(p *Process, w *Intracomm) error) {
	b.Helper()
	job := groupCounter.Add(1)
	group := fmt.Sprintf("core-hyb-bench-%d", job)
	dialer := transport.NewInProc(0)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("%s-rank-%d", group, i)
	}
	procs := make([]*Process, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			procs[rank], errs[rank] = Init(hybriddev.New(), xdev.Config{
				Rank: rank, Size: n, Addrs: addrs, Dialer: dialer,
				Group: group, NodeOf: nodeOf, Colocated: true,
			})
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

// hybridBenchPlacements are the np=16, two-node placements the
// comparison sweeps:
//
//   - blocked: ranks 0-7 on node 0, 8-15 on node 1 — the friendliest
//     case for flat binomial trees (only the top-distance edges cross);
//   - interleaved: rank i on node i%2 — mpjrun's default daemon
//     round-robin, where every odd-distance edge crosses;
//   - scattered: rank i on node popcount(i)%2 — every power-of-two
//     distance flips the node, so every edge of every binomial/RD/RSAG
//     round crosses the wire. This is the placement the two-level
//     model's "placement-blind trees pay wire cost on every edge"
//     assumption describes exactly.
func hybridBenchPlacements(n int) map[string][]int {
	blocked := make([]int, n)
	inter := make([]int, n)
	scattered := make([]int, n)
	for i := 0; i < n; i++ {
		blocked[i] = i * 2 / n
		inter[i] = i % 2
		scattered[i] = bits.OnesCount(uint(i)) % 2
	}
	return map[string][]int{"blocked": blocked, "interleaved": inter, "scattered": scattered}
}

// BenchmarkHybridColl is the flat-vs-hierarchical comparison on the
// hybrid device: np=16 across two simulated nodes, Bcast and Allreduce
// from 64 KiB to 4 MiB. "flat" forces the best placement-blind
// algorithms (pipelined Bcast, RSAG Allreduce); "hier" forces the
// two-level node-leader family. Routing is identical in both modes —
// only the algorithm changes.
//
//	go test ./internal/core -bench BenchmarkHybridColl -run '^$' -benchtime 3x
func BenchmarkHybridColl(b *testing.B) {
	const np = 16
	sizes := []struct {
		name  string
		bytes int
	}{
		{"64KiB", 64 << 10},
		{"256KiB", 256 << 10},
		{"1MiB", 1 << 20},
		{"4MiB", 4 << 20},
	}
	modes := []struct {
		name  string
		force collForce
	}{
		{"flat", forceRSAG},
		{"hier", forceHier},
	}
	type collCase struct {
		name string
		body func(w *Intracomm, elems int, in, out []int64) error
	}
	colls := []collCase{
		{"Bcast", func(w *Intracomm, elems int, in, _ []int64) error {
			return w.Bcast(in, 0, elems, LONG, 0)
		}},
		{"Allreduce", func(w *Intracomm, elems int, in, out []int64) error {
			return w.Allreduce(in, 0, out, 0, elems, LONG, SUM)
		}},
	}
	placements := hybridBenchPlacements(np)
	for _, cc := range colls {
		b.Run(cc.name, func(b *testing.B) {
			for _, sz := range sizes {
				b.Run(sz.name, func(b *testing.B) {
					for _, place := range []string{"blocked", "interleaved", "scattered"} {
						b.Run(place, func(b *testing.B) {
							for _, mode := range modes {
								b.Run(mode.name, func(b *testing.B) {
									restore := setColl(defaultSegmentBytes, defaultCollWindow, mode.force)
									defer restore()
									elems := sz.bytes / 8
									b.SetBytes(int64(sz.bytes))
									runHybridWorld(b, np, placements[place], func(p *Process, w *Intracomm) error {
										in := make([]int64, elems)
										for i := range in {
											in[i] = int64(w.Rank() + i)
										}
										out := make([]int64, elems)
										if err := w.Barrier(); err != nil {
											return err
										}
										if w.Rank() == 0 {
											b.ResetTimer()
										}
										for i := 0; i < b.N; i++ {
											if err := cc.body(w, elems, in, out); err != nil {
												return err
											}
										}
										if err := w.Barrier(); err != nil {
											return err
										}
										if w.Rank() == 0 {
											b.StopTimer()
										}
										return nil
									})
								})
							}
						})
					}
				})
			}
		})
	}
}

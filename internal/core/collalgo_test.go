package core

import (
	"math"
	"math/rand"
	"testing"

	"mpj/internal/mpe"
)

// TestAllreduceRDAllSizes exercises recursive doubling across group
// sizes, including non-powers of two (the fold/unfold path).
func TestAllreduceRDAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		n := n
		runWorld(t, n, func(p *Process, w *Intracomm) {
			const k = 3
			in := make([]int64, k)
			for i := range in {
				in[i] = int64(w.Rank()*10 + i)
			}
			out := make([]int64, k)
			if err := w.Allreduce(in, 0, out, 0, k, LONG, SUM); err != nil {
				t.Errorf("n=%d: %v", n, err)
				return
			}
			for i := range out {
				want := int64(0)
				for r := 0; r < n; r++ {
					want += int64(r*10 + i)
				}
				if out[i] != want {
					t.Errorf("n=%d rank %d: out[%d]=%d want %d", n, w.Rank(), i, out[i], want)
					return
				}
			}
		})
	}
}

// TestAllreduceRDMatchesReduceBcast compares the two algorithms on
// random inputs: recursive doubling (commutative path) must agree with
// the explicit reduce+broadcast.
func TestAllreduceRDMatchesReduceBcast(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(5)
		k := 1 + rng.Intn(8)
		inputs := make([][]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, k)
			for i := range inputs[r] {
				inputs[r][i] = float64(rng.Intn(100)) / 4
			}
		}
		runWorld(t, n, func(p *Process, w *Intracomm) {
			rank := w.Rank()
			viaRD := make([]float64, k)
			if err := w.Allreduce(inputs[rank], 0, viaRD, 0, k, DOUBLE, MAX); err != nil {
				t.Error(err)
				return
			}
			viaRB := make([]float64, k)
			if err := w.Reduce(inputs[rank], 0, viaRB, 0, k, DOUBLE, MAX, 0); err != nil {
				t.Error(err)
				return
			}
			if err := w.Bcast(viaRB, 0, k, DOUBLE, 0); err != nil {
				t.Error(err)
				return
			}
			for i := range viaRD {
				if viaRD[i] != viaRB[i] {
					t.Errorf("trial %d rank %d: RD %v vs RB %v", trial, rank, viaRD, viaRB)
					return
				}
			}
		})
	}
}

// TestAllgatherRingLargePayload pushes the gathered size over the ring
// threshold and checks every block lands intact on every rank.
func TestAllgatherRingLargePayload(t *testing.T) {
	const n = 5
	const per = 2048 // 5 ranks * 2048 int64 = 80 KiB > threshold
	runWorld(t, n, func(p *Process, w *Intracomm) {
		mine := make([]int64, per)
		for i := range mine {
			mine[i] = int64(w.Rank()*1_000_000 + i)
		}
		recv := make([]int64, per*n)
		if err := w.Allgather(mine, 0, per, LONG, recv, 0, per, LONG); err != nil {
			t.Error(err)
			return
		}
		for r := 0; r < n; r++ {
			for i := 0; i < per; i += 512 {
				if recv[r*per+i] != int64(r*1_000_000+i) {
					t.Errorf("rank %d: block %d elem %d = %d", w.Rank(), r, i, recv[r*per+i])
					return
				}
			}
		}
	})
}

// TestAllgathervRingUnequalBlocks uses the ring with varying block
// sizes and displacement gaps.
func TestAllgathervRingUnequalBlocks(t *testing.T) {
	const n = 3
	runWorld(t, n, func(p *Process, w *Intracomm) {
		rank := w.Rank()
		counts := []int{3000, 1000, 2000} // 48 KB total > threshold
		displs := []int{0, 3500, 5000}    // gap after block 0
		mine := make([]int64, counts[rank])
		for i := range mine {
			mine[i] = int64(rank*100_000 + i)
		}
		recv := make([]int64, 7000)
		for i := range recv {
			recv[i] = -1
		}
		if err := w.Allgatherv(mine, 0, counts[rank], LONG, recv, 0, counts, displs, LONG); err != nil {
			t.Error(err)
			return
		}
		for r := 0; r < n; r++ {
			for i := 0; i < counts[r]; i += 333 {
				if recv[displs[r]+i] != int64(r*100_000+i) {
					t.Errorf("rank %d: block %d elem %d = %d", rank, r, i, recv[displs[r]+i])
					return
				}
			}
		}
		// The gap must be untouched.
		if recv[3200] != -1 {
			t.Errorf("gap overwritten: %d", recv[3200])
		}
	})
}

// BenchmarkAllreduceAlgorithms is the algorithm ablation: recursive
// doubling vs reduce+broadcast on the same payload.
func BenchmarkAllreduceAlgorithms(b *testing.B) {
	const n = 4
	const k = 1 << 10
	run := func(b *testing.B, body func(w *Intracomm, in, out []float64) error) {
		runWorldBench(b, n, func(p *Process, w *Intracomm) error {
			in := make([]float64, k)
			out := make([]float64, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := body(w, in, out); err != nil {
					return err
				}
			}
			b.StopTimer()
			return nil
		})
	}
	b.Run("recursive-doubling", func(b *testing.B) {
		run(b, func(w *Intracomm, in, out []float64) error {
			return w.Allreduce(in, 0, out, 0, k, DOUBLE, SUM)
		})
	})
	b.Run("reduce-bcast", func(b *testing.B) {
		run(b, func(w *Intracomm, in, out []float64) error {
			if err := w.Reduce(in, 0, out, 0, k, DOUBLE, SUM, 0); err != nil {
				return err
			}
			return w.Bcast(out, 0, k, DOUBLE, 0)
		})
	})
}

// BenchmarkAllgatherAlgorithms compares ring vs gather+bcast by
// straddling the threshold.
func BenchmarkAllgatherAlgorithms(b *testing.B) {
	const n = 4
	bench := func(b *testing.B, per int) {
		runWorldBench(b, n, func(p *Process, w *Intracomm) error {
			mine := make([]int64, per)
			recv := make([]int64, per*n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Allgather(mine, 0, per, LONG, recv, 0, per, LONG); err != nil {
					return err
				}
			}
			b.StopTimer()
			return nil
		})
	}
	b.Run("small-gather-bcast", func(b *testing.B) { bench(b, 64) })
	b.Run("large-ring", func(b *testing.B) { bench(b, 4096) })
}

// TestGatherBinomialAllRootsAllSizes drives the binomial path (small
// blocks) across group sizes and roots, including non-powers of two.
func TestGatherBinomialAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{4, 5, 6, 7, 8} {
		n := n
		runWorld(t, n, func(p *Process, w *Intracomm) {
			for root := 0; root < n; root++ {
				send := []int32{int32(w.Rank()*10 + root), int32(w.Rank())}
				var recv []int32
				if w.Rank() == root {
					recv = make([]int32, 2*n)
				}
				if err := w.Gather(send, 0, 2, INT, recv, 0, 2, INT, root); err != nil {
					t.Errorf("n=%d root=%d: %v", n, root, err)
					return
				}
				if w.Rank() == root {
					for r := 0; r < n; r++ {
						if recv[2*r] != int32(r*10+root) || recv[2*r+1] != int32(r) {
							t.Errorf("n=%d root=%d: recv=%v", n, root, recv)
							return
						}
					}
				}
			}
		})
	}
}

// TestGatherLargeBlocksUseLinearPath confirms big blocks still gather
// correctly (linear path) and with derived datatypes.
func TestGatherLargeBlocksUseLinearPath(t *testing.T) {
	const n = 4
	const k = 2048 // 8 KiB per block > binomial threshold
	runWorld(t, n, func(p *Process, w *Intracomm) {
		send := make([]int32, k)
		for i := range send {
			send[i] = int32(w.Rank()*100000 + i)
		}
		var recv []int32
		if w.Rank() == 1 {
			recv = make([]int32, k*n)
		}
		if err := w.Gather(send, 0, k, INT, recv, 0, k, INT, 1); err != nil {
			t.Error(err)
			return
		}
		if w.Rank() == 1 {
			for r := 0; r < n; r++ {
				if recv[r*k+k-1] != int32(r*100000+k-1) {
					t.Errorf("block %d tail = %d", r, recv[r*k+k-1])
					return
				}
			}
		}
	})
}

// BenchmarkGatherAlgorithms compares binomial and linear gathers at a
// block size near the threshold.
func BenchmarkGatherAlgorithms(b *testing.B) {
	const n = 8
	bench := func(b *testing.B, per int) {
		runWorldBench(b, n, func(p *Process, w *Intracomm) error {
			send := make([]int32, per)
			var recv []int32
			if w.Rank() == 0 {
				recv = make([]int32, per*n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Gather(send, 0, per, INT, recv, 0, per, INT, 0); err != nil {
					return err
				}
			}
			b.StopTimer()
			return nil
		})
	}
	b.Run("small-binomial", func(b *testing.B) { bench(b, 64) })
	b.Run("large-linear", func(b *testing.B) { bench(b, 8192) })
}

// TestAllgatherRingMatchesStoreForward: an Allgather large enough for
// the ring leaves every rank with exactly the bytes the store-and-forward
// algorithm (gather to rank 0, broadcast) leaves, NaN payloads included.
func TestAllgatherRingMatchesStoreForward(t *testing.T) {
	const n = 4
	const per = 1024 // 4 ranks × 8 KiB = 32 KiB ≥ ringThresholdBytes
	rec := &algoRecorder{seen: make(map[[2]int32]bool)}
	runRecordedWorld(t, n, make([]int, n), rec, func(p *Process, w *Intracomm) {
		rng := rand.New(rand.NewSource(int64(w.Rank()) + 1))
		mine := make([]float64, per)
		for i := range mine {
			mine[i] = math.Float64frombits(rng.Uint64())
		}
		viaRing := make([]float64, n*per)
		if err := w.Allgather(mine, 0, per, DOUBLE, viaRing, 0, per, DOUBLE); err != nil {
			t.Error(err)
			return
		}
		viaSF := make([]float64, n*per)
		if err := w.Gather(mine, 0, per, DOUBLE, viaSF, 0, per, DOUBLE, 0); err != nil {
			t.Error(err)
			return
		}
		if err := w.Bcast(viaSF, 0, n*per, DOUBLE, 0); err != nil {
			t.Error(err)
			return
		}
		for i := range viaRing {
			if math.Float64bits(viaRing[i]) != math.Float64bits(viaSF[i]) {
				t.Errorf("rank %d elem %d: ring %#x, store-and-forward %#x",
					w.Rank(), i, math.Float64bits(viaRing[i]), math.Float64bits(viaSF[i]))
				return
			}
		}
	})
	if !rec.seen[[2]int32{mpe.CollAllgather, mpe.AlgoRing}] {
		t.Error("Allgather did not take the ring")
	}
}

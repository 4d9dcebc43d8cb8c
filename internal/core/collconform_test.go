package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// Conformance matrix for the segmented/pipelined collectives: every
// algorithm variant must produce results bit-identical to the
// unsegmented baseline, across commutative and non-commutative ops,
// derived datatypes, and payload sizes straddling the segment, eager
// and rendezvous boundaries (including off-by-one on the segment
// boundary). Each variant is reached through the size table, not by
// naming it: pipeTune's 1 KiB segments split even small payloads,
// flatTune's segment is larger than any payload, and rdTune/rsagTune
// put the Allreduce threshold above or below every payload. Over
// niodev the eager limit is 2 KiB so the same sizes also straddle the
// eager→rendezvous switch.

// defaultColl is the table the library runs with.
var defaultColl = collCfg

// segTuning is the default table with another segment size and window.
func segTuning(seg, window int) collTuning {
	t := defaultColl
	t.segBytes, t.window = seg, window
	return t
}

var (
	pipeTune = segTuning(1024, 2)
	flatTune = collTuning{segBytes: 1 << 30, window: 2, rsagBytes: 1 << 30, hierBytes: defaultColl.hierBytes}
	rdTune   = collTuning{segBytes: 1024, window: 2, rsagBytes: 1 << 30, hierBytes: defaultColl.hierBytes}
	rsagTune = collTuning{segBytes: 1024, window: 2, rsagBytes: 0, hierBytes: defaultColl.hierBytes}
)

// setColl swaps the collective tuning; the caller must invoke the
// returned restore after the world has shut down (never while one is
// running).
func setColl(tune collTuning) (restore func()) {
	old := collCfg
	collCfg = tune
	return func() { collCfg = old }
}

// conformCounts straddle the 1 KiB segment boundary (128 int64 elems)
// and the 2 KiB nio eager limit (256 elems) by one element each way.
var conformCounts = []int{1, 127, 128, 129, 255, 256, 257, 400}

type worldRunner func(t *testing.T, n int, fn func(p *Process, w *Intracomm))

// matProdOp is a non-commutative, associative user op: the slice is a
// sequence of 2x2 int64 matrices (row-major) combined by matrix
// product, with trailing non-matrix elements combined by projection
// onto the left operand. SegmentAtom(4) lets reductions split between
// matrices.
func matProdOp() *Op {
	return NewOp(matProdFn, false).SegmentAtom(4)
}

func matProdFn(in, inout any) error {
	a, ok := in.([]int64)
	if !ok {
		return fmt.Errorf("matProd: want []int64, got %T", in)
	}
	b := inout.([]int64)
	if len(a) != len(b) {
		return fmt.Errorf("matProd: length mismatch %d vs %d", len(a), len(b))
	}
	i := 0
	for ; i+4 <= len(a); i += 4 {
		// inout = in × inout.
		c00 := a[i]*b[i] + a[i+1]*b[i+2]
		c01 := a[i]*b[i+1] + a[i+1]*b[i+3]
		c10 := a[i+2]*b[i] + a[i+3]*b[i+2]
		c11 := a[i+2]*b[i+1] + a[i+3]*b[i+3]
		b[i], b[i+1], b[i+2], b[i+3] = c00, c01, c10, c11
	}
	for ; i < len(a); i++ {
		b[i] = a[i]
	}
	return nil
}

// matInput is rank r's deterministic contribution: unit-determinant
// matrices with rank-dependent off-diagonals, so products from
// different rank orders differ (the op is genuinely non-commutative)
// while entries stay far from overflow.
func matInput(rank, count int) []int64 {
	v := make([]int64, count)
	for i := 0; i+4 <= count; i += 4 {
		v[i], v[i+1] = 1, int64((rank+i/4)%5)
		v[i+2], v[i+3] = 0, 2
	}
	for i := count - count%4; i < count; i++ {
		v[i] = int64(rank*100 + i)
	}
	return v
}

// foldExpected computes the flat baseline result p_0 op (p_1 op (...))
// locally.
func foldExpected(n, count int, input func(rank, count int) []int64) []int64 {
	acc := input(n-1, count)
	for i := n - 2; i >= 0; i-- {
		if err := matProdFn(input(i, count), acc); err != nil {
			panic(err)
		}
	}
	return acc
}

func collConformance(t *testing.T, np int, run worldRunner) {
	t.Run("BcastLong", func(t *testing.T) {
		for _, tune := range []collTuning{flatTune, pipeTune} {
			restore := setColl(tune)
			run(t, np, func(p *Process, w *Intracomm) {
				rank := w.Rank()
				for _, count := range conformCounts {
					for _, root := range []int{0, np - 1} {
						buf := make([]int64, count)
						if rank == root {
							for i := range buf {
								buf[i] = int64(i*3 + 1)
							}
						}
						if err := w.Bcast(buf, 0, count, LONG, root); err != nil {
							t.Errorf("Bcast(count=%d,root=%d,tune=%v): %v", count, root, tune, err)
							return
						}
						for i := range buf {
							if buf[i] != int64(i*3+1) {
								t.Errorf("Bcast(count=%d,root=%d,tune=%v): elem %d = %d", count, root, tune, i, buf[i])
								return
							}
						}
					}
				}
			})
			restore()
		}
	})

	t.Run("BcastDerived", func(t *testing.T) {
		for _, tune := range []collTuning{flatTune, pipeTune} {
			restore := setColl(tune)
			run(t, np, func(p *Process, w *Intracomm) {
				rank := w.Rank()
				// Contiguous derived type: zero-copy view path.
				cdt, err := LONG.Contiguous(3)
				if err != nil {
					t.Errorf("Contiguous: %v", err)
					return
				}
				const citems = 150 // 450 elems = 3600 B: several segments
				cbuf := make([]int64, citems*3)
				if rank == 0 {
					for i := range cbuf {
						cbuf[i] = int64(i + 7)
					}
				}
				if err := w.Bcast(cbuf, 0, citems, cdt, 0); err != nil {
					t.Errorf("Bcast contiguous derived: %v", err)
					return
				}
				for i := range cbuf {
					if cbuf[i] != int64(i+7) {
						t.Errorf("Bcast contiguous derived: elem %d = %d", i, cbuf[i])
						return
					}
				}
				// Strided vector: gather-to-scratch + writeback path.
				// Gap elements must survive untouched.
				vdt, err := DOUBLE.Vector(2, 1, 3)
				if err != nil {
					t.Errorf("Vector: %v", err)
					return
				}
				const vitems = 120
				vlen := vitems*vdt.Extent() + 4
				vbuf := make([]float64, vlen)
				for i := range vbuf {
					vbuf[i] = -1
				}
				if rank == 0 {
					for k := 0; k < vitems; k++ {
						vbuf[k*vdt.Extent()] = float64(k) + 0.25
						vbuf[k*vdt.Extent()+3] = float64(k) + 0.5
					}
				}
				if err := w.Bcast(vbuf, 0, vitems, vdt, 0); err != nil {
					t.Errorf("Bcast vector: %v", err)
					return
				}
				for k := 0; k < vitems; k++ {
					at := k * vdt.Extent()
					if vbuf[at] != float64(k)+0.25 || vbuf[at+3] != float64(k)+0.5 {
						t.Errorf("Bcast vector: item %d = %v/%v", k, vbuf[at], vbuf[at+3])
						return
					}
					if vbuf[at+1] != -1 || vbuf[at+2] != -1 {
						t.Errorf("Bcast vector: item %d gap clobbered", k)
						return
					}
				}
			})
			restore()
		}
	})

	t.Run("ReduceSumExact", func(t *testing.T) {
		for _, tune := range []collTuning{flatTune, pipeTune} {
			restore := setColl(tune)
			run(t, np, func(p *Process, w *Intracomm) {
				rank := w.Rank()
				n := w.Size()
				for _, count := range conformCounts {
					for _, root := range []int{0, np - 1} {
						send := make([]int64, count)
						for i := range send {
							send[i] = int64(rank*7 + i)
						}
						recv := make([]int64, count)
						if err := w.Reduce(send, 0, recv, 0, count, LONG, SUM, root); err != nil {
							t.Errorf("Reduce(count=%d,root=%d,tune=%v): %v", count, root, tune, err)
							return
						}
						if rank == root {
							for i := range recv {
								want := int64(7*n*(n-1)/2 + n*i)
								if recv[i] != want {
									t.Errorf("Reduce(count=%d,root=%d,tune=%v): elem %d = %d, want %d",
										count, root, tune, i, recv[i], want)
									return
								}
							}
						}
					}
				}
			})
			restore()
		}
	})

	// The pipelined commutative reduce preserves the flat tree's exact
	// per-element fold order, so even floating-point sums — where
	// association changes the bits — must match the flat result
	// bit-for-bit.
	t.Run("ReduceDoubleBitIdentical", func(t *testing.T) {
		const count = 400
		const root = 0
		results := make([][]float64, 2)
		for idx, tune := range []collTuning{flatTune, pipeTune} {
			restore := setColl(tune)
			out := make([]float64, count)
			run(t, np, func(p *Process, w *Intracomm) {
				rank := w.Rank()
				send := make([]float64, count)
				for i := range send {
					send[i] = math.Sqrt(float64(rank*1009 + i + 2))
				}
				recv := make([]float64, count)
				if err := w.Reduce(send, 0, recv, 0, count, DOUBLE, SUM, root); err != nil {
					t.Errorf("Reduce double (tune=%v): %v", tune, err)
					return
				}
				if rank == root {
					copy(out, recv)
				}
			})
			restore()
			results[idx] = out
		}
		for i := range results[0] {
			if math.Float64bits(results[0][i]) != math.Float64bits(results[1][i]) {
				t.Fatalf("pipelined Reduce not bit-identical to flat at elem %d: %x vs %x",
					i, math.Float64bits(results[0][i]), math.Float64bits(results[1][i]))
			}
		}
	})

	t.Run("ReduceNonCommutative", func(t *testing.T) {
		// Segment-splittable matrix op (atom 4) and the same op with
		// whole-message application (no atom): both must reproduce the
		// flat rank-ordered fold exactly through the streamed
		// bounded-window fold, in one segment and in several.
		counts := []int{4, 128, 132, 400, 402}
		for _, tune := range []collTuning{flatTune, pipeTune} {
			for _, atom := range []bool{true, false} {
				op := matProdOp()
				if !atom {
					op = NewOp(matProdFn, false)
				}
				restore := setColl(tune)
				run(t, np, func(p *Process, w *Intracomm) {
					rank := w.Rank()
					n := w.Size()
					for _, count := range counts {
						for _, root := range []int{0, np - 1} {
							recv := make([]int64, count)
							if err := w.Reduce(matInput(rank, count), 0, recv, 0, count, LONG, op, root); err != nil {
								t.Errorf("Reduce mat(count=%d,root=%d,tune=%v,atom=%v): %v", count, root, tune, atom, err)
								return
							}
							if rank == root {
								want := foldExpected(n, count, matInput)
								for i := range recv {
									if recv[i] != want[i] {
										t.Errorf("Reduce mat(count=%d,root=%d,tune=%v,atom=%v): elem %d = %d, want %d",
											count, root, tune, atom, i, recv[i], want[i])
										return
									}
								}
							}
						}
					}
				})
				restore()
			}
		}
	})

	t.Run("AllreduceVariants", func(t *testing.T) {
		counts := append(append([]int{}, conformCounts...), 8192, 8193)
		for _, tune := range []collTuning{rdTune, rsagTune, pipeTune} {
			restore := setColl(tune)
			run(t, np, func(p *Process, w *Intracomm) {
				rank := w.Rank()
				n := w.Size()
				for _, count := range counts {
					send := make([]int64, count)
					for i := range send {
						send[i] = int64(rank*7 + i)
					}
					recv := make([]int64, count)
					if err := w.Allreduce(send, 0, recv, 0, count, LONG, SUM); err != nil {
						t.Errorf("Allreduce(count=%d,tune=%v): %v", count, tune, err)
						return
					}
					for i := range recv {
						want := int64(7*n*(n-1)/2 + n*i)
						if recv[i] != want {
							t.Errorf("Allreduce(count=%d,tune=%v): elem %d = %d, want %d", count, tune, i, recv[i], want)
							return
						}
					}
				}
			})
			restore()
		}
	})

	t.Run("AllreduceMaxloc", func(t *testing.T) {
		// MAXLOC's (value,index) pairs are 2-element atoms: segment and
		// stripe splits must never separate a pair.
		pairCounts := []int{8, 256, 514}
		for _, tune := range []collTuning{rdTune, rsagTune, pipeTune} {
			restore := setColl(tune)
			run(t, np, func(p *Process, w *Intracomm) {
				rank := w.Rank()
				n := w.Size()
				val := func(r, k int) int64 { return int64(((r+k)*37)%101) * 10 }
				for _, elems := range pairCounts {
					send := make([]int64, elems)
					for k := 0; k < elems/2; k++ {
						send[2*k] = val(rank, k)
						send[2*k+1] = int64(rank)
					}
					recv := make([]int64, elems)
					if err := w.Allreduce(send, 0, recv, 0, elems, LONG, MAXLOC); err != nil {
						t.Errorf("Allreduce MAXLOC(elems=%d,tune=%v): %v", elems, tune, err)
						return
					}
					for k := 0; k < elems/2; k++ {
						bestV, bestR := val(0, k), int64(0)
						for r := 1; r < n; r++ {
							if v := val(r, k); v > bestV {
								bestV, bestR = v, int64(r)
							}
						}
						if recv[2*k] != bestV || recv[2*k+1] != bestR {
							t.Errorf("Allreduce MAXLOC(elems=%d,tune=%v): pair %d = (%d,%d), want (%d,%d)",
								elems, tune, k, recv[2*k], recv[2*k+1], bestV, bestR)
							return
						}
					}
				}
			})
			restore()
		}
	})

	t.Run("ScatterGather", func(t *testing.T) {
		blockCounts := []int{127, 129, 300}
		for _, tune := range []collTuning{flatTune, pipeTune} {
			restore := setColl(tune)
			run(t, np, func(p *Process, w *Intracomm) {
				rank := w.Rank()
				n := w.Size()
				for _, count := range blockCounts {
					var sendAll []int64
					if rank == 0 {
						sendAll = make([]int64, n*count)
						for i := range sendAll {
							sendAll[i] = int64(i * 11)
						}
					}
					block := make([]int64, count)
					if err := w.Scatter(sendAll, 0, count, LONG, block, 0, count, LONG, 0); err != nil {
						t.Errorf("Scatter(count=%d,tune=%v): %v", count, tune, err)
						return
					}
					for i := range block {
						if want := int64((rank*count + i) * 11); block[i] != want {
							t.Errorf("Scatter(count=%d,tune=%v): elem %d = %d, want %d", count, tune, i, block[i], want)
							return
						}
					}
					for i := range block {
						block[i] += int64(rank)
					}
					var recvAll []int64
					if rank == 0 {
						recvAll = make([]int64, n*count)
					}
					if err := w.Gather(block, 0, count, LONG, recvAll, 0, count, LONG, 0); err != nil {
						t.Errorf("Gather(count=%d,tune=%v): %v", count, tune, err)
						return
					}
					if rank == 0 {
						for i := range recvAll {
							if want := int64(i*11 + i/count); recvAll[i] != want {
								t.Errorf("Gather(count=%d,tune=%v): elem %d = %d, want %d", count, tune, i, recvAll[i], want)
								return
							}
						}
					}
				}
			})
			restore()
		}
	})

	t.Run("GathervDerivedRoot", func(t *testing.T) {
		// Root receives through a strided vector type, so the streamed
		// blocks land in scratch and scatter back through the layout.
		for _, tune := range []collTuning{flatTune, pipeTune} {
			restore := setColl(tune)
			run(t, np, func(p *Process, w *Intracomm) {
				rank := w.Rank()
				n := w.Size()
				vdt, err := LONG.Vector(2, 1, 2)
				if err != nil {
					t.Errorf("Vector: %v", err)
					return
				}
				const items = 200 // 400 elems = 3200 B per peer: streams
				scount := items * vdt.Size()
				send := make([]int64, scount)
				for i := range send {
					send[i] = int64(rank*100000 + i)
				}
				rcounts := make([]int, n)
				displs := make([]int, n)
				for i := range rcounts {
					rcounts[i] = items
					displs[i] = i * items
				}
				var recv []int64
				if rank == 0 {
					recv = make([]int64, n*items*vdt.Extent()+2)
					for i := range recv {
						recv[i] = -5
					}
				}
				if err := w.Gatherv(send, 0, scount, LONG, recv, 0, rcounts, displs, vdt, 0); err != nil {
					t.Errorf("Gatherv derived(tune=%v): %v", tune, err)
					return
				}
				if rank == 0 {
					want := make([]int64, len(recv))
					for i := range want {
						want[i] = -5
					}
					for r := 0; r < n; r++ {
						src := make([]int64, scount)
						for i := range src {
							src[i] = int64(r*100000 + i)
						}
						if err := fromScratch(src, want, displs[r]*vdt.Extent(), items, vdt); err != nil {
							t.Errorf("fromScratch: %v", err)
							return
						}
					}
					for i := range recv {
						if recv[i] != want[i] {
							t.Errorf("Gatherv derived(tune=%v): elem %d = %d, want %d", tune, i, recv[i], want[i])
							return
						}
					}
				}
			})
			restore()
		}
	})
}

func TestCollConformanceSMP(t *testing.T) {
	collConformance(t, 5, runWorld)
}

func TestCollConformanceNio(t *testing.T) {
	collConformance(t, 4, func(t *testing.T, n int, fn func(p *Process, w *Intracomm)) {
		runWorldNio(t, n, 2048, fn)
	})
}

// TestCollectivesConcurrentStress drives segmented collectives from
// two goroutines per rank on two different communicators at once
// (ThreadMultiple), sized so every call pipelines. Run under -race it
// checks the stream/window machinery shares nothing it shouldn't.
func TestCollectivesConcurrentStress(t *testing.T) {
	restore := setColl(segTuning(4096, 3))
	defer restore()
	const (
		iters = 8
		elems = 16 << 10 // 128 KiB of int64
	)
	runWorld(t, 6, func(p *Process, w *Intracomm) {
		rank := w.Rank()
		n := w.Size()
		dup, err := w.Split(0, rank)
		if err != nil {
			t.Errorf("Split dup: %v", err)
			return
		}
		sub, err := w.Split(rank%2, rank)
		if err != nil {
			t.Errorf("Split sub: %v", err)
			return
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			send := make([]int64, elems)
			recv := make([]int64, elems)
			for it := 0; it < iters; it++ {
				for i := range send {
					send[i] = int64(rank + i + it)
				}
				if err := dup.Allreduce(send, 0, recv, 0, elems, LONG, SUM); err != nil {
					t.Errorf("stress Allreduce: %v", err)
					return
				}
				want := int64(n*(n-1)/2 + n*(3+it))
				if recv[3] != want {
					t.Errorf("stress Allreduce iter %d: got %d, want %d", it, recv[3], want)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			srank := sub.Rank()
			sn := sub.Size()
			buf := make([]int64, elems)
			recv := make([]int64, elems)
			for it := 0; it < iters; it++ {
				if srank == 0 {
					for i := range buf {
						buf[i] = int64(i ^ it)
					}
				}
				if err := sub.Bcast(buf, 0, elems, LONG, 0); err != nil {
					t.Errorf("stress Bcast: %v", err)
					return
				}
				if buf[5] != int64(5^it) {
					t.Errorf("stress Bcast iter %d: got %d", it, buf[5])
					return
				}
				if err := sub.Reduce(buf, 0, recv, 0, elems, LONG, SUM, 0); err != nil {
					t.Errorf("stress Reduce: %v", err)
					return
				}
				if srank == 0 && recv[5] != int64(sn)*int64(5^it) {
					t.Errorf("stress Reduce iter %d: got %d", it, recv[5])
					return
				}
			}
		}()
		wg.Wait()
	})
}

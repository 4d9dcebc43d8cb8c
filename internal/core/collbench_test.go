package core

import (
	"fmt"
	"testing"
)

// BenchmarkColl is the collective performance matrix: four collectives
// × three payload sizes × three communicator sizes, each measured with
// the pipeline disabled (flat: the store-and-forward baselines) and
// with the size-tuned selection on (pipe). Payload is the total
// message a rank broadcasts/reduces; for Allgather it is the total
// gathered result, split evenly across ranks.
//
//	go test ./internal/core -bench BenchmarkColl -run '^$'
func BenchmarkColl(b *testing.B) {
	sizes := []struct {
		name  string
		bytes int
	}{
		{"1KiB", 1 << 10},
		{"64KiB", 64 << 10},
		{"1MiB", 1 << 20},
	}
	nps := []int{4, 8, 16}
	// flat raises the segment and RSAG thresholds past every payload;
	// pipe is the library's own table.
	modes := []struct {
		name string
		tune collTuning
	}{
		{"flat", collTuning{segBytes: 1 << 30, window: defaultColl.window, rsagBytes: 1 << 30, hierBytes: defaultColl.hierBytes}},
		{"pipe", defaultColl},
	}

	type collCase struct {
		name string
		body func(w *Intracomm, elems int, in, out []int64) error
	}
	colls := []collCase{
		{"Bcast", func(w *Intracomm, elems int, in, _ []int64) error {
			return w.Bcast(in, 0, elems, LONG, 0)
		}},
		{"Reduce", func(w *Intracomm, elems int, in, out []int64) error {
			return w.Reduce(in, 0, out, 0, elems, LONG, SUM, 0)
		}},
		{"Allreduce", func(w *Intracomm, elems int, in, out []int64) error {
			return w.Allreduce(in, 0, out, 0, elems, LONG, SUM)
		}},
		{"Allgather", func(w *Intracomm, elems int, in, out []int64) error {
			per := elems / w.Size()
			return w.Allgather(in, 0, per, LONG, out, 0, per, LONG)
		}},
	}

	for _, cc := range colls {
		b.Run(cc.name, func(b *testing.B) {
			for _, sz := range sizes {
				b.Run(sz.name, func(b *testing.B) {
					for _, np := range nps {
						b.Run(fmt.Sprintf("np%d", np), func(b *testing.B) {
							for _, mode := range modes {
								b.Run(mode.name, func(b *testing.B) {
									restore := setColl(mode.tune)
									defer restore()
									elems := sz.bytes / 8
									b.SetBytes(int64(sz.bytes))
									runWorldBench(b, np, func(p *Process, w *Intracomm) error {
										in := make([]int64, elems)
										for i := range in {
											in[i] = int64(w.Rank() + i)
										}
										out := make([]int64, elems)
										// Only rank 0 touches the timer: concurrent
										// ResetTimer/StopTimer from every rank race and
										// can zero the measurement. The barriers fence
										// the measured region.
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

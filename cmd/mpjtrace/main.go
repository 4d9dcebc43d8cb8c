// Command mpjtrace inspects the per-rank trace files that mpj's event
// tracing writes (Options.Tracing / mpj.WithTracing / MPJ_TRACE=1).
//
// Usage:
//
//	mpjtrace [-dir mpjtrace-out] [-rank N] [-summary] [-merge]
//	         [-chrome out.json] [-decisions] [-o FILE]
//	mpjtrace -replay RECDIR -- command args...
//
// With -summary (the default when no other output is selected) it
// prints each rank's device counters, event counts and
// completion-latency percentiles per message-size bucket. With -chrome
// it merges every rank onto a shared wall-clock timeline and writes
// Chrome trace_event JSON loadable in chrome://tracing or
// https://ui.perfetto.dev.
//
// With -merge it correlates the ranks' traces message by message: each
// send is matched to its receive via the (sender, sequence) identity
// every device stamps, per-rank clock offsets are estimated from the
// message timestamps, and the tool prints wire-latency percentiles,
// late-sender/late-receiver counts and a collective critical-path
// report. Combined with -chrome, the output gains flow arrows
// connecting each matched send to its receive.
//
// With -decisions it prints the per-rank decision logs a recorded run
// (MPJ_RECORD / Options.RecordDir) wrote into -dir: every wildcard
// match resolution, completion-pop and agreement outcome, in the
// deterministic log order. When decision
// logs sit next to trace files, -chrome also injects them as instant
// events, sorted by (rank, decision index) so repeated exports of
// logs written by racing threads are byte-identical.
//
// With -replay it re-runs the command after "--" against a recording:
// MPJ_REPLAY is pointed at RECDIR (the library then enforces the
// recorded decisions), MPJ_RECORD at a scratch directory, and the
// observed logs are byte-compared against the recording — the exit
// status is nonzero on divergence, with the first differing decision
// printed per rank.
//
// -demo runs a traced 4-rank job (eager and rendezvous ping-pongs plus
// collectives) first, so the tool can be tried without an instrumented
// application. Unless -o names a directory for it, the demo traces
// into a fresh directory under the system temp dir:
//
//	go run ./cmd/mpjtrace -demo -merge
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mpj"
	"mpj/internal/mpe"
)

func main() {
	dir := flag.String("dir", mpe.DefaultTraceDir, "trace directory to read (and write, with -demo)")
	rank := flag.Int("rank", -1, "restrict output to one rank (-1 = all ranks)")
	summary := flag.Bool("summary", false, "print per-rank counters, event counts and latency percentiles")
	merge := flag.Bool("merge", false, "correlate sends with receives across ranks and report latency and critical paths")
	chrome := flag.String("chrome", "", "write merged Chrome trace_event JSON to this file")
	out := flag.String("o", "", "with -demo: directory to trace the demo job into (default: under the system temp dir)")
	demo := flag.Bool("demo", false, "first run a traced 4-rank demo job")
	decisions := flag.Bool("decisions", false, "print the per-rank decision logs (rank-*.decisions) in -dir")
	replayRec := flag.String("replay", "", "replay the command after -- against the recording in this directory and diff the decision logs")
	flag.Parse()

	if *replayRec != "" {
		if err := runReplay(*replayRec, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	if *demo {
		demoDir := *out
		if demoDir == "" {
			// Keep demo output out of the working tree unless the user
			// asked for a specific place.
			td, err := os.MkdirTemp("", "mpjtrace-demo-")
			if err != nil {
				fatal(err)
			}
			demoDir = filepath.Join(td, "mpjtrace-out")
		}
		if err := runDemo(demoDir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mpjtrace: demo job traced into %s\n", demoDir)
		*dir = demoDir
	}

	wrote := false
	if *decisions {
		if err := printDecisions(os.Stdout, *dir, *rank); err != nil {
			fatal(err)
		}
		wrote = true
		// Decision logs need no trace files; stop here unless another
		// output mode wants them.
		if !*summary && !*merge && *chrome == "" {
			return
		}
	}

	files, err := mpe.ReadTraceDir(*dir)
	if err != nil {
		fatal(err)
	}

	var merged *mpe.Merged
	if *merge || *chrome != "" {
		merged, err = mpe.MergeTraces(files)
		if err != nil {
			fatal(err)
		}
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if *merge {
			err = merged.WriteMergedChrome(f)
		} else {
			err = mpe.WriteChromeTraceExtras(f, files, *rank, decisionExtras(*dir, *rank))
		}
		if err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mpjtrace: wrote %s (%d ranks)\n", *chrome, len(files))
		wrote = true
	}
	if *merge {
		if err := merged.WriteReport(os.Stdout); err != nil {
			fatal(err)
		}
		wrote = true
	}
	if *summary || !wrote {
		if err := mpe.WriteSummary(os.Stdout, files, *rank); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpjtrace:", err)
	os.Exit(1)
}

// runDemo traces a small 4-rank job exercising both wire protocols
// (eager and rendezvous ping-pongs) and a few collectives.
func runDemo(dir string) error {
	const (
		small = 1 << 10   // eager
		large = 256 << 10 // rendezvous on niodev's default limit
	)
	return mpj.RunLocalOpts(4, mpj.WithTracing(dir), func(p *mpj.Process) error {
		w := p.World()
		me, n := w.Rank(), w.Size()
		peer := me ^ 1 // 0<->1, 2<->3
		for _, size := range []int{small, large} {
			buf := make([]byte, size)
			for iter := 0; iter < 4; iter++ {
				if me%2 == 0 {
					if err := w.Send(buf, 0, size, mpj.BYTE, peer, iter); err != nil {
						return err
					}
					if _, err := w.Recv(buf, 0, size, mpj.BYTE, peer, iter); err != nil {
						return err
					}
				} else {
					if _, err := w.Recv(buf, 0, size, mpj.BYTE, peer, iter); err != nil {
						return err
					}
					if err := w.Send(buf, 0, size, mpj.BYTE, peer, iter); err != nil {
						return err
					}
				}
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		sum := make([]int64, 1)
		if err := w.Allreduce([]int64{int64(me)}, 0, sum, 0, 1, mpj.LONG, mpj.SUM); err != nil {
			return err
		}
		if want := int64(n * (n - 1) / 2); sum[0] != want {
			return fmt.Errorf("demo: allreduce got %d, want %d", sum[0], want)
		}
		if err := w.Bcast(make([]byte, 64), 0, 64, mpj.BYTE, 0); err != nil {
			return err
		}
		// Large payloads take the segmented paths: a pipelined Bcast
		// and a reduce-scatter+allgather Allreduce, so the summary's
		// segment counters and algorithm table have something to show.
		wide := make([]byte, large)
		if me == 0 {
			for i := range wide {
				wide[i] = byte(i)
			}
		}
		if err := w.Bcast(wide, 0, large, mpj.BYTE, 0); err != nil {
			return err
		}
		for i := 0; i < large; i += large / 7 {
			if wide[i] != byte(i) {
				return fmt.Errorf("demo: bcast byte %d corrupted", i)
			}
		}
		const elems = 32 << 10 // 256 KiB of int64: above the RSAG threshold
		vec := make([]int64, elems)
		for i := range vec {
			vec[i] = int64(me + i)
		}
		out := make([]int64, elems)
		if err := w.Allreduce(vec, 0, out, 0, elems, mpj.LONG, mpj.SUM); err != nil {
			return err
		}
		if want := int64(n*(n-1)/2) + int64(n)*7; out[7] != want {
			return fmt.Errorf("demo: large allreduce got %d, want %d", out[7], want)
		}
		return nil
	})
}

package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mpj/internal/mpe"
	"mpj/internal/smpdev"
	"mpj/internal/xdev"
)

// runPlacedWorld is runWorld with a simulated rank→node placement
// installed before any traffic. Placement only shapes which algorithm
// the collectives pick — correctness must not depend on whether the
// "nodes" are real, which is exactly what these tests exploit.
func runPlacedWorld(t *testing.T, n int, nodeOf []int, fn func(p *Process, w *Intracomm)) {
	t.Helper()
	runRecordedWorld(t, n, nodeOf, nil, fn)
}

// runRecordedWorld is runPlacedWorld with rec, when non-nil, as every
// rank's event recorder.
func runRecordedWorld(t *testing.T, n int, nodeOf []int, rec mpe.Recorder, fn func(p *Process, w *Intracomm)) {
	t.Helper()
	group := fmt.Sprintf("core-hier-%d", groupCounter.Add(1))
	procs := make([]*Process, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			procs[rank], errs[rank] = Init(smpdev.New(), xdev.Config{
				Rank: rank, Size: n, Group: group, NodeOf: nodeOf, Recorder: rec,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d init: %v", i, err)
		}
	}
	defer func() {
		for _, p := range procs {
			p.Finalize()
		}
	}()
	var jobWG sync.WaitGroup
	for i := 0; i < n; i++ {
		jobWG.Add(1)
		go func(rank int) {
			defer jobWG.Done()
			fn(procs[rank], procs[rank].World())
		}(i)
	}
	done := make(chan struct{})
	go func() {
		jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("world deadlocked")
	}
}

func TestTopologyView(t *testing.T) {
	nodeOf := []int{0, 0, 1, 1, 2}
	runPlacedWorld(t, 5, nodeOf, func(p *Process, w *Intracomm) {
		rank := w.Rank()
		if got := w.NodeCount(); got != 3 {
			t.Errorf("rank %d: NodeCount = %d, want 3", rank, got)
		}
		if got := w.NodeOf(rank); got != nodeOf[rank] {
			t.Errorf("rank %d: NodeOf = %d, want %d", rank, got, nodeOf[rank])
		}
		wantLeader := []int{0, 0, 2, 2, 4}[rank]
		if got := w.NodeLeader(); got != wantLeader {
			t.Errorf("rank %d: NodeLeader = %d, want %d", rank, got, wantLeader)
		}
		if got := w.IsNodeLeader(); got != (rank == wantLeader) {
			t.Errorf("rank %d: IsNodeLeader = %v", rank, got)
		}

		intra, err := w.SplitByNode()
		if err != nil {
			t.Errorf("rank %d: SplitByNode: %v", rank, err)
			return
		}
		wantSize := []int{2, 2, 2, 2, 1}[rank]
		if intra.Size() != wantSize {
			t.Errorf("rank %d: intra size = %d, want %d", rank, intra.Size(), wantSize)
		}
		// The intra-node comm spans one node by construction.
		if intra.NodeCount() != 1 {
			t.Errorf("rank %d: intra NodeCount = %d, want 1", rank, intra.NodeCount())
		}

		leaders, err := w.SplitNodeLeaders()
		if err != nil {
			t.Errorf("rank %d: SplitNodeLeaders: %v", rank, err)
			return
		}
		if rank == wantLeader {
			if leaders == nil || leaders.Size() != 3 {
				t.Errorf("rank %d: leader comm = %v", rank, leaders)
			} else if leaders.NodeCount() != 3 {
				t.Errorf("rank %d: leader comm NodeCount = %d, want 3", rank, leaders.NodeCount())
			}
		} else if leaders != nil {
			t.Errorf("rank %d: non-leader got a leader comm", rank)
		}
	})
}

// TestTopologyUnknownPlacement: no node map means one node — the
// degenerate view that keeps every topology-aware path flat.
func TestTopologyUnknownPlacement(t *testing.T) {
	runWorld(t, 3, func(p *Process, w *Intracomm) {
		if w.NodeCount() != 1 || w.NodeLeader() != 0 {
			t.Errorf("rank %d: unknown placement: nodes=%d leader=%d, want 1/0",
				w.Rank(), w.NodeCount(), w.NodeLeader())
		}
		if p.NodeMap() != nil {
			t.Errorf("rank %d: NodeMap = %v, want nil", w.Rank(), p.NodeMap())
		}
	})
}

// hierPlacements exercises the two-level algorithms across topology
// shapes: balanced, interleaved (node ids out of rank order), uneven
// (different ranks per node, odd leader count for the RD/RSAG rem
// fold), and a node map naming more ranks per node than nodes.
var hierPlacements = map[string][]int{
	"balanced-2x4":    {0, 0, 0, 0, 1, 1, 1, 1},
	"interleaved-2x4": {0, 1, 0, 1, 0, 1, 0, 1},
	"uneven-3nodes":   {0, 0, 0, 1, 1, 2, 2, 2},
	"4x2":             {0, 0, 1, 1, 2, 2, 3, 3},
}

// TestHierCollectivesMatchFlat drops the hierarchical threshold to zero,
// so every call on these multi-node placements goes two-level, and
// checks Bcast/Reduce/Allreduce against locally computed expectations
// for payloads straddling the leader-phase RSAG stripe gate, with
// leader and non-leader roots.
func TestHierCollectivesMatchFlat(t *testing.T) {
	const np = 8
	for name, nodeOf := range hierPlacements {
		t.Run(name, func(t *testing.T) {
			restore := setColl(collTuning{segBytes: 1024, window: 2, rsagBytes: defaultColl.rsagBytes, hierBytes: 0})
			defer restore()
			runPlacedWorld(t, np, nodeOf, func(p *Process, w *Intracomm) {
				rank := w.Rank()
				for _, count := range []int{1, 7, 256, 1023} {
					for _, root := range []int{0, np - 1, np / 2} {
						// Bcast: non-root data must be overwritten.
						buf := make([]int64, count)
						if rank == root {
							for i := range buf {
								buf[i] = int64(root*1000 + i)
							}
						}
						if err := w.Bcast(buf, 0, count, LONG, root); err != nil {
							t.Errorf("rank %d: Bcast(root=%d,count=%d): %v", rank, root, count, err)
							return
						}
						for i, v := range buf {
							if v != int64(root*1000+i) {
								t.Errorf("rank %d: Bcast(root=%d,count=%d)[%d] = %d", rank, root, count, i, v)
								return
							}
						}

						// Reduce: sum of deterministic contributions.
						send := make([]int64, count)
						for i := range send {
							send[i] = int64(rank + i)
						}
						recv := make([]int64, count)
						if err := w.Reduce(send, 0, recv, 0, count, LONG, SUM, root); err != nil {
							t.Errorf("rank %d: Reduce(root=%d,count=%d): %v", rank, root, count, err)
							return
						}
						if rank == root {
							for i, v := range recv {
								want := int64(np*(np-1)/2 + np*i)
								if v != want {
									t.Errorf("rank %d: Reduce(root=%d,count=%d)[%d] = %d, want %d",
										rank, root, count, i, v, want)
									return
								}
							}
						}
					}

					// Allreduce: everyone holds the sum.
					send := make([]int64, count)
					for i := range send {
						send[i] = int64(rank + i)
					}
					recv := make([]int64, count)
					if err := w.Allreduce(send, 0, recv, 0, count, LONG, SUM); err != nil {
						t.Errorf("rank %d: Allreduce(count=%d): %v", rank, count, err)
						return
					}
					for i, v := range recv {
						want := int64(np*(np-1)/2 + np*i)
						if v != want {
							t.Errorf("rank %d: Allreduce(count=%d)[%d] = %d, want %d", rank, count, i, v, want)
							return
						}
					}
				}
			})
		})
	}
}

// TestHierAutoSelection: the default table only goes hierarchical past
// the size threshold on a genuinely multi-node placement.
func TestHierAutoSelection(t *testing.T) {
	restore := setColl(defaultColl)
	defer restore()
	runPlacedWorld(t, 4, []int{0, 0, 1, 1}, func(p *Process, w *Intracomm) {
		if got := w.chooseBcast(defaultColl.hierBytes, LONG); got != mpe.AlgoHierarchical {
			t.Errorf("chooseBcast(big) = %s, want hierarchical", mpe.AlgoName(got))
		}
		if got := w.chooseBcast(100, LONG); got == mpe.AlgoHierarchical {
			t.Errorf("chooseBcast(small) picked hierarchical")
		}
		if got := w.chooseAllreduce(defaultColl.hierBytes, defaultColl.hierBytes/8, LONG, SUM); got != mpe.AlgoHierarchical {
			t.Errorf("chooseAllreduce(big) = %s, want hierarchical", mpe.AlgoName(got))
		}
	})
	// Single node: never hierarchical, regardless of size.
	runPlacedWorld(t, 4, []int{0, 0, 0, 0}, func(p *Process, w *Intracomm) {
		if got := w.chooseBcast(defaultColl.hierBytes, LONG); got == mpe.AlgoHierarchical {
			t.Errorf("single-node chooseBcast picked hierarchical")
		}
	})
}

// algoRecorder keeps the (collective, algorithm) pairs of every
// CollectiveAlgo event; all other events are dropped.
type algoRecorder struct {
	mpe.Nop
	mu   sync.Mutex
	seen map[[2]int32]bool
}

func (r *algoRecorder) Enabled() bool { return true }

func (r *algoRecorder) Event(typ mpe.EventType, peer, tag, ctx int32, bytes int64) {
	if typ != mpe.CollectiveAlgo {
		return
	}
	r.mu.Lock()
	r.seen[[2]int32{tag, peer}] = true
	r.mu.Unlock()
}

// TestCollTableReachesEveryAlgorithm runs each collective at sizes on
// both sides of every threshold of a scaled-down table, on a placement
// spanning two nodes, and checks from the CollectiveAlgo events that
// the table picked every algorithm it has.
func TestCollTableReachesEveryAlgorithm(t *testing.T) {
	restore := setColl(collTuning{segBytes: 1024, window: 2, rsagBytes: 4 << 10, hierBytes: 16 << 10})
	defer restore()
	const (
		small = 1    // 8 B: under every threshold
		mid   = 300  // 2400 B: over the segment, under RSAG and hier
		rsag  = 1024 // 8 KiB: over RSAG, under hier
		big   = 4096 // 32 KiB: over hier
	)
	want := []struct{ kind, algo int32 }{
		{mpe.CollBcast, mpe.AlgoStoreForward},
		{mpe.CollBcast, mpe.AlgoPipelined},
		{mpe.CollBcast, mpe.AlgoHierarchical},
		{mpe.CollReduce, mpe.AlgoStoreForward},
		{mpe.CollReduce, mpe.AlgoPipelined},
		{mpe.CollReduce, mpe.AlgoHierarchical},
		{mpe.CollReduce, mpe.AlgoStreamedFold},
		{mpe.CollAllreduce, mpe.AlgoRecursiveDoubling},
		{mpe.CollAllreduce, mpe.AlgoReduceScatterAllgather},
		{mpe.CollAllreduce, mpe.AlgoHierarchical},
		{mpe.CollGather, mpe.AlgoBinomialGather},
		{mpe.CollGatherv, mpe.AlgoStoreForward},
		{mpe.CollGatherv, mpe.AlgoPipelined},
		{mpe.CollScatterv, mpe.AlgoStoreForward},
		{mpe.CollScatterv, mpe.AlgoPipelined},
		{mpe.CollAllgatherv, mpe.AlgoRing},
	}
	for _, np := range []int{4, 8} {
		nodeOf := make([]int, np)
		for i := range nodeOf {
			nodeOf[i] = i * 2 / np
		}
		rec := &algoRecorder{seen: make(map[[2]int32]bool)}
		runRecordedWorld(t, np, nodeOf, rec, func(p *Process, w *Intracomm) {
			check := func(what string, err error) {
				if err != nil {
					t.Errorf("np %d rank %d: %s: %v", np, w.Rank(), what, err)
				}
			}
			buf := make([]int64, big)
			out := make([]int64, big)
			all := make([]int64, np*big)
			for _, count := range []int{small, mid, rsag, big} {
				check("Bcast", w.Bcast(buf, 0, count, LONG, 0))
				check("Reduce", w.Reduce(buf, 0, out, 0, count, LONG, SUM, 0))
				check("Allreduce", w.Allreduce(buf, 0, out, 0, count, LONG, SUM))
			}
			check("Reduce non-commutative", w.Reduce(matInput(w.Rank(), 8), 0, out, 0, 8, LONG, matProdOp(), 0))
			for _, count := range []int{small, mid} {
				check("Gather", w.Gather(buf, 0, count, LONG, all, 0, count, LONG, 0))
				check("Scatter", w.Scatter(all, 0, count, LONG, buf, 0, count, LONG, 0))
			}
			counts := make([]int, np)
			displs := make([]int, np)
			for i := range counts {
				counts[i], displs[i] = small, i*small
			}
			check("Gatherv", w.Gatherv(buf, 0, small, LONG, all, 0, counts, displs, LONG, 0))
			for i := range counts {
				counts[i], displs[i] = rsag, i*rsag
			}
			check("Allgatherv", w.Allgatherv(buf, 0, rsag, LONG, all, 0, counts, displs, LONG))
		})
		for _, pair := range want {
			if !rec.seen[[2]int32{pair.kind, pair.algo}] {
				t.Errorf("np %d: %s never picked %s", np, mpe.CollName(pair.kind), mpe.AlgoName(pair.algo))
			}
		}
	}
}

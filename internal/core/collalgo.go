package core

import (
	"fmt"

	"mpj/internal/mpe"
)

// Collective algorithm variants. Like production MPI libraries, the
// high-level operations pick an algorithm from message size, group
// size and operator properties:
//
//   - Bcast pipelines large payloads down the binomial tree in
//     segments (O(depth·seg + msg) instead of O(depth·msg)), and
//     sends small ones whole;
//   - Reduce folds large commutative payloads segment-by-segment down
//     the same tree; non-commutative ops use a streamed rank-ordered
//     fold at the root with bounded memory;
//   - Allreduce uses recursive doubling for small commutative
//     payloads (log2(n) rounds, each rank ends with the result) and a
//     Rabenseifner-style reduce-scatter + allgather from
//     collCfg.rsagBytes (each byte crosses the wire O(1) times); it
//     falls back to a rank-ordered reduce+broadcast for
//     non-commutative ones;
//   - Scatter/Gather stream large per-rank blocks in windowed
//     segments so several peers are in flight at once;
//   - Allgather/Allgatherv switch to a ring (bandwidth-optimal, n-1
//     neighbour exchanges) once the gathered payload is large, and use
//     gather+broadcast below that (latency-optimal for small data).
//
// The internal/core benchmarks compare the variants directly.

// Allreduce tags live beside the other collective tags. tagSegBase
// opens the per-segment tag space: segment i of a pipelined stream
// travels under tagSegBase+i, so windowed receives stay correctly
// paired even on devices that relax posted-order matching (ibisdev).
// Nothing else allocates tags above tagSegBase.
const (
	tagAllreduceRD = tagBarrierRound + 64
	tagRing        = tagBarrierRound + 65
	tagAllreduceRS = tagBarrierRound + 66 // RSAG reduce-scatter phase
	tagAllreduceAG = tagBarrierRound + 67 // RSAG allgather phase
	tagSegBase     = tagBarrierRound + 128
)

// ringThresholdBytes is the gathered-payload size above which
// Allgatherv uses the ring algorithm.
const ringThresholdBytes = 16 << 10

// pipelineReduceMaxRanks bounds the comm size for the pipelined
// reduce. Unlike the pipelined broadcast — which packs once at the
// root and forwards wire buffers verbatim — a reduce must unpack, fold
// and repack at every level, so a deeper tree multiplies the
// per-segment message count with no repack to save; past this size the
// flat binomial's fewer, larger messages win.
const pipelineReduceMaxRanks = 8

// collTuning is the size table every choose* function reads. Each
// algorithm is reached by where a payload falls against these
// thresholds; no setting names an algorithm. Tests overwrite collCfg
// between worlds (never while one is running) to reach a variant at
// small sizes.
type collTuning struct {
	// segBytes is the pipeline segment size: payloads and scatter/
	// gather blocks above it move as segment streams, the rest whole.
	segBytes int
	// window is the number of outstanding segments per stream.
	window int
	// rsagBytes is the payload size from which commutative Allreduce
	// switches from recursive doubling to reduce-scatter + allgather.
	rsagBytes int
	// hierBytes is the payload size from which Bcast, Reduce and
	// Allreduce take the two-level node-leader algorithms when the
	// placement spans several nodes with several ranks on some node.
	// Below it the extra intra-node hops cost more than the saved wire
	// messages; the two-level perfmodel predicts the crossover per
	// fabric, and BenchmarkHybridColl measures it.
	hierBytes int
}

var collCfg = collTuning{segBytes: 32 << 10, window: 4, rsagBytes: 64 << 10, hierBytes: 64 << 10}

// payloadBytes is the contiguous wire size of count items of dt.
func payloadBytes(count int, dt *Datatype) int {
	return count * dt.Size() * max(dt.Base().Size(), 1)
}

// segmentable reports whether a payload of dt may move as segments:
// OBJECT elements have no fixed wire size and struct types interleave
// base types, so both always travel whole.
func segmentable(dt *Datatype) bool {
	return dt.fields == nil && dt.Base() != OBJECT.Base()
}

// hierEligible reports whether the two-level node-leader algorithms
// apply: the payload is past the crossover, the communicator spans
// several nodes, and each wire message saved pays for at least one
// intra-node hop (some node holds several ranks). Every rank computes
// this from the same global placement, so the choice agrees job-wide.
func (c *Intracomm) hierEligible(bytes int) bool {
	if c.Size() < 2 || bytes < collCfg.hierBytes {
		return false
	}
	t := c.topo()
	return t.nNodes >= 2 && t.ranksPerNode() >= 2
}

// chooseBcast picks the broadcast variant from the payload size and
// the node topology.
func (c *Intracomm) chooseBcast(bytes int, dt *Datatype) int32 {
	if c.Size() == 1 || !segmentable(dt) {
		return mpe.AlgoStoreForward
	}
	if c.hierEligible(bytes) {
		return mpe.AlgoHierarchical
	}
	if bytes > collCfg.segBytes {
		return mpe.AlgoPipelined
	}
	return mpe.AlgoStoreForward
}

// chooseReduce picks the reduce variant. Non-commutative ops always
// take the streamed rank-ordered fold (bounded memory at the root);
// commutative ops pipeline large payloads down the binomial tree when
// the op can be applied per segment and the comm is small enough that
// the extra per-segment messages pay off.
func (c *Intracomm) chooseReduce(bytes int, dt *Datatype, op *Op) int32 {
	if !op.commute {
		return mpe.AlgoStreamedFold
	}
	if c.Size() == 1 || !segmentable(dt) || op.atom <= 0 {
		return mpe.AlgoStoreForward
	}
	if c.hierEligible(bytes) {
		return mpe.AlgoHierarchical
	}
	if bytes > collCfg.segBytes && c.Size() <= pipelineReduceMaxRanks {
		return mpe.AlgoPipelined
	}
	return mpe.AlgoStoreForward
}

// chooseAllreduce picks between recursive doubling and reduce-scatter
// + allgather for commutative ops (non-commutative Allreduce never
// reaches it — that path is reduce+broadcast). RSAG splits the vector
// across ranks, so it needs a segmentable payload, an op that allows
// atom-aligned splitting, and enough elements to give every rank a
// stripe.
func (c *Intracomm) chooseAllreduce(bytes, elems int, dt *Datatype, op *Op) int32 {
	if segmentable(dt) && c.hierEligible(bytes) {
		return mpe.AlgoHierarchical
	}
	if bytes < collCfg.rsagBytes || !segmentable(dt) || op.atom <= 0 || c.Size() < 4 {
		return mpe.AlgoRecursiveDoubling
	}
	pof2 := 1
	for pof2*2 <= c.Size() {
		pof2 *= 2
	}
	if elems >= pof2*op.atom {
		return mpe.AlgoReduceScatterAllgather
	}
	return mpe.AlgoRecursiveDoubling
}

// chooseBlockStream decides whether one root↔peer block of a scatter
// or gather moves as a single message or as a windowed segment
// stream. Root and peer compute this independently from their own
// count/datatype, which MPI requires to describe the same bytes, so
// the two sides always agree.
func chooseBlockStream(bytes int, dt *Datatype) bool {
	return segmentable(dt) && bytes > collCfg.segBytes
}

// recordAlgo emits a CollectiveAlgo event so traces show which variant
// each collective picked.
func (c *Comm) recordAlgo(kind, algo int32, bytes int) {
	rec := c.p.rec
	if rec.Enabled() {
		rec.Event(mpe.CollectiveAlgo, algo, kind, int32(c.coll.Context()), int64(bytes))
	}
}

// allreduceRD performs recursive-doubling allreduce over a contiguous
// scratch slice in place. Requires a commutative op.
func (c *Intracomm) allreduceRD(scratch any, elems int, bdt *Datatype, op *Op) error {
	return c.allreduceRDOver(scratch, elems, bdt, op, c.allRanks())
}

// allreduceRDOver is allreduceRD over an explicit participant list
// (comm ranks, same order on every caller): position in the list plays
// the role of rank. The hierarchical allreduce runs it over the node
// leaders; non-members return immediately.
func (c *Intracomm) allreduceRDOver(scratch any, elems int, bdt *Datatype, op *Op, list []int) error {
	n := len(list)
	rank := rankIndex(list, c.Rank())
	if n == 1 || rank < 0 {
		return nil
	}

	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2

	// One receive temp serves every round (pooled for []byte payloads).
	var tmp any
	var putTmp func()
	recvTmp := func() (any, error) {
		if tmp == nil {
			var err error
			tmp, putTmp, err = tempLike(scratch, elems)
			if err != nil {
				return nil, err
			}
		}
		return tmp, nil
	}
	defer func() {
		if putTmp != nil {
			putTmp()
		}
	}()

	// Fold the ranks beyond the largest power of two into the core:
	// even ranks below 2*rem contribute to their odd neighbour and sit
	// out the exchange phase.
	newRank := -1
	switch {
	case rank < 2*rem && rank%2 == 0:
		if err := c.collSend(scratch, 0, elems, bdt, list[rank+1], tagAllreduceRD); err != nil {
			return err
		}
	case rank < 2*rem:
		t, err := recvTmp()
		if err != nil {
			return err
		}
		if err := c.collRecv(t, 0, elems, bdt, list[rank-1], tagAllreduceRD); err != nil {
			return err
		}
		if err := op.apply(t, scratch); err != nil {
			return err
		}
		newRank = rank / 2
	default:
		newRank = rank - rem
	}

	if newRank != -1 {
		toReal := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := list[toReal(newRank^mask)]
			req, sb, err := startSend(c.coll.Isend, scratch, 0, elems, bdt, partner, tagAllreduceRD)
			if err != nil {
				return err
			}
			t, err := recvTmp()
			if err != nil {
				return err
			}
			if err := c.collRecv(t, 0, elems, bdt, partner, tagAllreduceRD); err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			putSendBuf(sb)
			if err := op.apply(t, scratch); err != nil {
				return err
			}
		}
	}

	// Unfold: the core hands results back to the folded-out ranks.
	if rank < 2*rem {
		if rank%2 != 0 {
			return c.collSend(scratch, 0, elems, bdt, list[rank-1], tagAllreduceRD)
		}
		return c.collRecv(scratch, 0, elems, bdt, list[rank+1], tagAllreduceRD)
	}
	return nil
}

// allgathervRing circulates blocks around a ring: after n-1 steps every
// rank holds every block. Blocks live in recvbuf at their final
// displacements throughout; rank r's own contribution must already be
// in place.
func (c *Intracomm) allgathervRing(recvbuf any, roff int, rcounts, displs []int, rdt *Datatype) error {
	n := c.Size()
	rank := c.Rank()
	right := (rank + 1) % n
	left := (rank - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendIdx := (rank - s + n) % n
		recvIdx := (rank - s - 1 + n) % n
		req, sb, err := startSend(c.coll.Isend, recvbuf, roff+displs[sendIdx]*rdt.extent, rcounts[sendIdx], rdt, right, tagRing)
		if err != nil {
			return fmt.Errorf("core: ring allgather step %d: %w", s, err)
		}
		if err := c.collRecv(recvbuf, roff+displs[recvIdx]*rdt.extent, rcounts[recvIdx], rdt, left, tagRing); err != nil {
			return fmt.Errorf("core: ring allgather step %d: %w", s, err)
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		putSendBuf(sb)
	}
	return nil
}

// allreduceRSAG is the Rabenseifner-style allreduce for large
// commutative payloads, in place over a contiguous scratch slice: a
// recursive-halving reduce-scatter leaves each core rank owning a
// fully reduced stripe of the vector, and a recursive-doubling
// allgather reassembles the stripes. Each byte crosses the wire O(1)
// times instead of the O(log n) of recursive doubling, which wins once
// bandwidth dominates. Requires a commutative op with a positive
// segment atom and elems >= pof2*atom (chooseAllreduce guarantees
// both).
func (c *Intracomm) allreduceRSAG(scratch any, elems int, bdt *Datatype, op *Op) error {
	return c.allreduceRSAGOver(scratch, elems, bdt, op, c.allRanks())
}

// allreduceRSAGOver is allreduceRSAG over an explicit participant list
// (comm ranks, same order everywhere); position in the list plays the
// role of rank. The hierarchical allreduce runs it over the node
// leaders; non-members return immediately.
func (c *Intracomm) allreduceRSAGOver(scratch any, elems int, bdt *Datatype, op *Op, list []int) error {
	n := len(list)
	rank := rankIndex(list, c.Rank())
	if n == 1 || rank < 0 {
		return nil
	}
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	atom := op.atom

	// Fold the ranks beyond the largest power of two into the core,
	// exactly as in allreduceRD.
	newRank := -1
	switch {
	case rank < 2*rem && rank%2 == 0:
		if err := c.collSend(scratch, 0, elems, bdt, list[rank+1], tagAllreduceRS); err != nil {
			return err
		}
	case rank < 2*rem:
		t, putT, err := tempLike(scratch, elems)
		if err != nil {
			return err
		}
		if err := c.collRecv(t, 0, elems, bdt, list[rank-1], tagAllreduceRS); err != nil {
			putT()
			return err
		}
		err = op.apply(t, scratch)
		putT()
		if err != nil {
			return err
		}
		newRank = rank / 2
	default:
		newRank = rank - rem
	}

	if newRank != -1 {
		toReal := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}

		// Recursive-halving reduce-scatter: each round trades half of
		// the current region with the partner and folds the kept half.
		// Splits land on atom boundaries so per-segment ops stay valid.
		type region struct{ lo, hi int }
		hist := make([]region, 0, 8) // regions before each halving, replayed in reverse by the allgather
		lo, hi := 0, elems
		tmp, putTmp, err := tempLike(scratch, (elems+1)/2+atom)
		if err != nil {
			return err
		}
		defer putTmp()
		for mask := pof2 >> 1; mask >= 1; mask >>= 1 {
			partner := list[toReal(newRank^mask)]
			mid := lo + (hi-lo)/2
			mid -= (mid - lo) % atom
			var keepLo, keepHi, sendLo, sendHi int
			if newRank&mask == 0 {
				keepLo, keepHi = lo, mid
				sendLo, sendHi = mid, hi
			} else {
				keepLo, keepHi = mid, hi
				sendLo, sendHi = lo, mid
			}
			hist = append(hist, region{lo, hi})
			req, sb, err := startSend(c.coll.Isend, scratch, sendLo, sendHi-sendLo, bdt, partner, tagAllreduceRS)
			if err != nil {
				return err
			}
			keep := keepHi - keepLo
			if err := c.collRecv(tmp, 0, keep, bdt, partner, tagAllreduceRS); err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			putSendBuf(sb)
			in, err := sliceRegion(tmp, 0, keep)
			if err != nil {
				return err
			}
			out, err := sliceRegion(scratch, keepLo, keep)
			if err != nil {
				return err
			}
			if err := op.apply(in, out); err != nil {
				return err
			}
			lo, hi = keepLo, keepHi
		}

		// Recursive-doubling allgather, replaying the halvings in
		// reverse: each round trades the owned stripe for the
		// partner's sibling stripe of the enclosing region.
		for i := len(hist) - 1; i >= 0; i-- {
			mask := pof2 >> (i + 1)
			partner := list[toReal(newRank^mask)]
			r := hist[i]
			mid := r.lo + (r.hi-r.lo)/2
			mid -= (mid - r.lo) % atom
			otherLo, otherHi := mid, r.hi
			if lo != r.lo {
				otherLo, otherHi = r.lo, mid
			}
			req, sb, err := startSend(c.coll.Isend, scratch, lo, hi-lo, bdt, partner, tagAllreduceAG)
			if err != nil {
				return err
			}
			if err := c.collRecv(scratch, otherLo, otherHi-otherLo, bdt, partner, tagAllreduceAG); err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			putSendBuf(sb)
			lo, hi = r.lo, r.hi
		}
	}

	// Unfold: the core hands results back to the folded-out ranks.
	if rank < 2*rem {
		if rank%2 != 0 {
			return c.collSend(scratch, 0, elems, bdt, list[rank-1], tagAllreduceRS)
		}
		return c.collRecv(scratch, 0, elems, bdt, list[rank+1], tagAllreduceRS)
	}
	return nil
}

// binomialGatherThresholdBytes is the per-block size below which
// Gather uses the binomial tree (log2(n) rounds) instead of the
// linear receive-at-root (n-1 messages converging on one process).
const binomialGatherThresholdBytes = 2 << 10

// gatherBinomial gathers equal-size blocks to root along a binomial
// tree: at step k, subtree owners of 2^k blocks forward their whole
// region to their parent. Latency O(log n) at the cost of each block
// travelling up to log n hops.
//
// scratch is this rank's contiguous contribution (blockElems base
// elements); the gathered result lands in recvbuf via rdt at root.
func (c *Intracomm) gatherBinomial(scratch any, blockElems int, bdt *Datatype,
	recvbuf any, roff, rcount int, rdt *Datatype, root int) error {
	n := c.Size()
	rank := c.Rank()
	rel := (rank - root + n) % n

	// region holds blocks [rel, rel+span) in relative order.
	region, err := allocLike(scratch, blockElems*n)
	if err != nil {
		return err
	}
	if err := fromScratch(scratch, region, 0, blockElems, bdt); err != nil {
		return err
	}
	span := 1
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			parent := (rel - mask + root) % n
			send := min(span, n-rel)
			return c.collSend(region, 0, send*blockElems, bdt, parent, tagGather)
		}
		childRel := rel + mask
		if childRel < n {
			recvBlocks := min(mask, n-childRel)
			src := (childRel + root) % n
			if err := c.collRecv(region, mask*blockElems, recvBlocks*blockElems, bdt, src, tagGather); err != nil {
				return err
			}
		}
		span <<= 1
	}
	// Root: blocks sit in relative order; place each into recvbuf by
	// absolute rank through rdt's layout.
	for relIdx := 0; relIdx < n; relIdx++ {
		abs := (relIdx + root) % n
		sub, err := sliceRegion(region, relIdx*blockElems, blockElems)
		if err != nil {
			return err
		}
		if err := fromScratch(sub, recvbuf, roff+abs*rcount*rdt.extent, rcount, rdt); err != nil {
			return err
		}
	}
	return nil
}

// sliceRegion returns src[off:off+count] preserving the dynamic type.
func sliceRegion(src any, off, count int) (any, error) {
	switch s := src.(type) {
	case []byte:
		return s[off : off+count], nil
	case []bool:
		return s[off : off+count], nil
	case []uint16:
		return s[off : off+count], nil
	case []int16:
		return s[off : off+count], nil
	case []int32:
		return s[off : off+count], nil
	case []int64:
		return s[off : off+count], nil
	case []float32:
		return s[off : off+count], nil
	case []float64:
		return s[off : off+count], nil
	case []any:
		return s[off : off+count], nil
	}
	return nil, fmt.Errorf("core: sliceRegion: unsupported type %T", src)
}

// gatheredBytes estimates the total payload of an allgather.
func gatheredBytes(rcounts []int, rdt *Datatype) int {
	total := 0
	for _, cnt := range rcounts {
		total += cnt
	}
	elem := rdt.Base().Size()
	if elem == 0 {
		elem = 64
	}
	return total * rdt.Size() * elem
}

package core

import (
	"fmt"

	"mpj/internal/devcore"
	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/mpjdev"
)

// Intracomm is a communicator whose processes form a single group; it
// carries the full collective operation set (the mpijava Intracomm
// class). Collectives run on a context separate from point-to-point
// traffic, so user messages can never intercept collective internals.
type Intracomm struct {
	Comm
}

// Collective operation tags within the collective context.
const (
	tagBarrier = iota + 1
	tagBcast
	tagGather
	tagScatter
	tagAllgather
	tagAlltoall
	tagReduce
	tagScan
	tagReduceScatter
	tagSplit
	tagBarrierRound // base for dissemination rounds; keep last
)

// nopPhase is the shared deferred value when tracing is off, keeping
// the disabled path allocation-free.
var nopPhase = func() {}

// phase opens a CollectivePhase span covering one collective call,
// tagged with the communicator's collective context id; the returned
// func closes it and is meant to be deferred.
func (c *Comm) phase(kind int32) func() {
	rec := c.p.rec
	if !rec.Enabled() {
		return nopPhase
	}
	start := rec.Now()
	ctx := int32(c.coll.Context())
	return func() { rec.Span(mpe.CollectivePhase, -1, kind, ctx, 0, start) }
}

// ---- collective-context point-to-point helpers ----

func (c *Comm) collSend(buf any, offset, count int, dt *Datatype, dst, tag int) error {
	b := devcore.GetBuffer()
	defer devcore.PutBuffer(b)
	if err := packInto(b, buf, offset, count, dt); err != nil {
		return err
	}
	return c.coll.Send(b, dst, tag)
}

// collIsend packs into a pooled wire buffer and starts the send. The
// caller must hand the returned buffer to putSendBuf after the
// request's Wait succeeds; the device may still read it — and the
// region of buf it borrowed — before then.
func (c *Comm) collIsend(buf any, offset, count int, dt *Datatype, dst, tag int) (*mpjdev.Request, *mpjbuf.Buffer, error) {
	b := devcore.GetBuffer()
	if err := packInto(b, buf, offset, count, dt); err != nil {
		devcore.PutBuffer(b)
		return nil, nil, err
	}
	req, err := c.coll.Isend(b, dst, tag)
	if err != nil {
		devcore.PutBuffer(b)
		return nil, nil, err
	}
	return req, b, nil
}

func (c *Comm) collRecv(buf any, offset, count int, dt *Datatype, src, tag int) error {
	b := devcore.GetBuffer()
	defer devcore.PutBuffer(b)
	land(b, buf, offset, count, dt)
	if _, err := c.coll.Recv(b, src, tag); err != nil {
		return err
	}
	_, err := unpack(b, buf, offset, count, dt)
	return err
}

// baseDt maps a buffer's element type to its base datatype.
func baseDt(buf any) (*Datatype, error) {
	switch buf.(type) {
	case []byte:
		return BYTE, nil
	case []bool:
		return BOOLEAN, nil
	case []uint16:
		return CHAR, nil
	case []int16:
		return SHORT, nil
	case []int32:
		return INT, nil
	case []int64:
		return LONG, nil
	case []float32:
		return FLOAT, nil
	case []float64:
		return DOUBLE, nil
	case []any:
		return OBJECT, nil
	}
	return nil, fmt.Errorf("core: unsupported buffer type %T", buf)
}

// allocLike returns a fresh slice of the same element type as buf.
func allocLike(buf any, n int) (any, error) {
	switch buf.(type) {
	case []byte:
		return make([]byte, n), nil
	case []bool:
		return make([]bool, n), nil
	case []uint16:
		return make([]uint16, n), nil
	case []int16:
		return make([]int16, n), nil
	case []int32:
		return make([]int32, n), nil
	case []int64:
		return make([]int64, n), nil
	case []float32:
		return make([]float32, n), nil
	case []float64:
		return make([]float64, n), nil
	case []any:
		return make([]any, n), nil
	}
	return nil, fmt.Errorf("core: unsupported buffer type %T", buf)
}

// toScratch gathers count items of dt from buf into a fresh contiguous
// slice of the base element type — the canonical form reductions and
// internal transfers operate on.
func toScratch(buf any, offset, count int, dt *Datatype) (any, error) {
	n, err := bufferElems(buf)
	if err != nil {
		return nil, err
	}
	if err := span(dt, offset, count, n, "gather"); err != nil {
		return nil, err
	}
	scratch, err := allocLike(buf, count*dt.Size())
	if err != nil {
		return nil, err
	}
	switch s := buf.(type) {
	case []byte:
		gatherInto(s, scratch.([]byte), offset, count, dt)
	case []bool:
		gatherInto(s, scratch.([]bool), offset, count, dt)
	case []uint16:
		gatherInto(s, scratch.([]uint16), offset, count, dt)
	case []int16:
		gatherInto(s, scratch.([]int16), offset, count, dt)
	case []int32:
		gatherInto(s, scratch.([]int32), offset, count, dt)
	case []int64:
		gatherInto(s, scratch.([]int64), offset, count, dt)
	case []float32:
		gatherInto(s, scratch.([]float32), offset, count, dt)
	case []float64:
		gatherInto(s, scratch.([]float64), offset, count, dt)
	case []any:
		gatherInto(s, scratch.([]any), offset, count, dt)
	}
	return scratch, nil
}

func gatherInto[T any](src, dst []T, offset, count int, dt *Datatype) {
	if dt.IsContiguous() && count > 0 {
		copy(dst, src[offset:offset+count*dt.extent])
		return
	}
	k := 0
	for i := 0; i < count; i++ {
		base := offset + i*dt.extent
		for _, disp := range dt.disps {
			dst[k] = src[base+disp]
			k++
		}
	}
}

// fromScratch scatters a contiguous slice back into buf's dt layout
// (memmove when dt is contiguous); a scratch of another type is an error.
func fromScratch(scratch, buf any, offset, count int, dt *Datatype) error {
	n, err := bufferElems(buf)
	if err != nil {
		return err
	}
	if err := span(dt, offset, count, n, "scatter"); err != nil {
		return err
	}
	switch s := buf.(type) {
	case []byte:
		return scatterInto(scratch, s, offset, count, dt)
	case []bool:
		return scatterInto(scratch, s, offset, count, dt)
	case []uint16:
		return scatterInto(scratch, s, offset, count, dt)
	case []int16:
		return scatterInto(scratch, s, offset, count, dt)
	case []int32:
		return scatterInto(scratch, s, offset, count, dt)
	case []int64:
		return scatterInto(scratch, s, offset, count, dt)
	case []float32:
		return scatterInto(scratch, s, offset, count, dt)
	case []float64:
		return scatterInto(scratch, s, offset, count, dt)
	case []any:
		return scatterInto(scratch, s, offset, count, dt)
	}
	return nil
}

func scatterInto[T any](from any, dst []T, offset, count int, dt *Datatype) error {
	scratch, ok := from.([]T)
	if !ok {
		return mismatchErr(from, dst)
	}
	if dt.IsContiguous() && count > 0 {
		copy(dst[offset:offset+count*dt.extent], scratch)
		return nil
	}
	k := 0
	for i := 0; i < count; i++ {
		base := offset + i*dt.extent
		for _, disp := range dt.disps {
			if k >= len(scratch) {
				return nil
			}
			dst[base+disp] = scratch[k]
			k++
		}
	}
	return nil
}

// mismatchErr reports a buffer whose element type differs from the
// data bound for it (say, an Allreduce from []float64 into []int32).
func mismatchErr(data, buf any) error {
	return fmt.Errorf("core: %T data does not fit a %T buffer", data, buf)
}

// localCopy moves data between two typed buffer regions through the
// two datatypes' layouts (the root's self-contribution in gather
// /scatter collectives).
func localCopy(src any, soff, scount int, sdt *Datatype, dst any, doff, dcount int, ddt *Datatype) error {
	scratch, err := toScratch(src, soff, scount, sdt)
	if err != nil {
		return err
	}
	return fromScratch(scratch, dst, doff, dcount, ddt)
}

// ---- collectives ----

// Barrier blocks until all processes in the communicator have entered
// it (dissemination algorithm, log2(n) rounds).
func (c *Intracomm) Barrier() error {
	defer c.phase(mpe.CollBarrier)()
	n := c.Size()
	rank := c.Rank()
	round := 0
	for k := 1; k < n; k <<= 1 {
		dst := (rank + k) % n
		src := (rank - k + n) % n
		tag := tagBarrierRound + round
		req, sb, err := c.collIsend([]byte{1}, 0, 1, BYTE, dst, tag)
		if err != nil {
			return fmt.Errorf("core: Barrier: %w", err)
		}
		if err := c.collRecv(make([]byte, 1), 0, 1, BYTE, src, tag); err != nil {
			return fmt.Errorf("core: Barrier: %w", err)
		}
		if _, err := req.Wait(); err != nil {
			return fmt.Errorf("core: Barrier: %w", err)
		}
		putSendBuf(sb)
		round++
	}
	return nil
}

// Bcast broadcasts count items of dt from root's buf to every process
// (binomial tree; payloads above the segment size are pipelined down
// the tree in windowed segments).
func (c *Intracomm) Bcast(buf any, offset, count int, dt *Datatype, root int) error {
	defer c.phase(mpe.CollBcast)()
	n := c.Size()
	if root < 0 || root >= n {
		return fmt.Errorf("core: Bcast: root %d out of range", root)
	}
	if n == 1 {
		return nil
	}
	bytes := payloadBytes(count, dt)
	algo := c.chooseBcast(bytes, dt)
	c.recordAlgo(mpe.CollBcast, algo, bytes)
	switch algo {
	case mpe.AlgoPipelined:
		if err := c.bcastPipelined(buf, offset, count, dt, root); err != nil {
			return fmt.Errorf("core: Bcast: %w", err)
		}
		return nil
	case mpe.AlgoHierarchical:
		if err := c.bcastHier(buf, offset, count, dt, root); err != nil {
			return fmt.Errorf("core: Bcast: %w", err)
		}
		return nil
	}
	rank := c.Rank()
	rel := (rank - root + n) % n

	// Receive from the parent (if not the root).
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (rel - mask + root) % n
			if err := c.collRecv(buf, offset, count, dt, parent, tagBcast); err != nil {
				return fmt.Errorf("core: Bcast recv: %w", err)
			}
			break
		}
		mask <<= 1
	}
	// Forward to children: rel's children are rel+m for every m below
	// rel's lowest set bit (or below the tree size for the root).
	mask = 1
	for mask < n {
		if rel&mask != 0 {
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			child := (rel + mask + root) % n
			if err := c.collSend(buf, offset, count, dt, child, tagBcast); err != nil {
				return fmt.Errorf("core: Bcast send: %w", err)
			}
		}
		mask >>= 1
	}
	return nil
}

// Gather collects scount items of sdt from every process into root's
// recvbuf, rank i's data landing at item offset i*rcount. Small blocks
// ride a binomial tree (log2(n) rounds); larger ones use the linear
// receive-at-root, which moves each byte only once.
func (c *Intracomm) Gather(sendbuf any, soff, scount int, sdt *Datatype,
	recvbuf any, roff, rcount int, rdt *Datatype, root int) error {
	defer c.phase(mpe.CollGather)()
	n := c.Size()
	if root < 0 || root >= n {
		return fmt.Errorf("core: Gather: root %d out of range", root)
	}
	// Algorithm choice must agree across ranks: decide from the send
	// signature, which MPI requires to match the receive signature.
	blockBytes := payloadBytes(scount, sdt)
	if n >= 4 && sdt.Base() != OBJECT.Base() && blockBytes > 0 && blockBytes <= binomialGatherThresholdBytes {
		c.recordAlgo(mpe.CollGather, mpe.AlgoBinomialGather, blockBytes*n)
		scratch, err := toScratch(sendbuf, soff, scount, sdt)
		if err != nil {
			return err
		}
		bdt, err := baseDt(scratch)
		if err != nil {
			return err
		}
		return c.gatherBinomial(scratch, scount*sdt.Size(), bdt, recvbuf, roff, rcount, rdt, root)
	}
	counts := make([]int, n)
	displs := make([]int, n)
	for i := range counts {
		counts[i] = rcount
		displs[i] = i * rcount
	}
	return c.Gatherv(sendbuf, soff, scount, sdt, recvbuf, roff, counts, displs, rdt, root)
}

// Gatherv collects varying counts: rank i contributes scount items and
// root stores them at item displacement displs[i] (counts[i] items).
// Blocks above the segment size stream to the root in windowed
// segments, several peers in flight at once; the rest arrive whole.
func (c *Intracomm) Gatherv(sendbuf any, soff, scount int, sdt *Datatype,
	recvbuf any, roff int, rcounts, displs []int, rdt *Datatype, root int) error {
	defer c.phase(mpe.CollGatherv)()
	n := c.Size()
	rank := c.Rank()
	if root < 0 || root >= n {
		return fmt.Errorf("core: Gatherv: root %d out of range", root)
	}
	if rank != root {
		// Stream-or-whole must agree with the root's per-block choice;
		// both sides compute it from their own (matching) signatures.
		if chooseBlockStream(payloadBytes(scount, sdt), sdt) {
			c.recordAlgo(mpe.CollGatherv, mpe.AlgoPipelined, payloadBytes(scount, sdt))
			if err := c.streamBlockSend(sendbuf, soff, scount, sdt, root); err != nil {
				return fmt.Errorf("core: Gatherv stream to root: %w", err)
			}
			return nil
		}
		c.recordAlgo(mpe.CollGatherv, mpe.AlgoStoreForward, payloadBytes(scount, sdt))
		return c.collSend(sendbuf, soff, scount, sdt, root, tagGather)
	}
	if len(rcounts) != n || len(displs) != n {
		return fmt.Errorf("core: Gatherv: need %d counts/displs, have %d/%d", n, len(rcounts), len(displs))
	}
	// Whole-block peers are serviced in rank order as before; the
	// streamed peers' windows then run concurrently until drained.
	var blocks []*blockStream
	for i := 0; i < n; i++ {
		if i == rank || !chooseBlockStream(payloadBytes(rcounts[i], rdt), rdt) {
			continue
		}
		at := roff + displs[i]*rdt.extent
		b, err := newBlockStream(recvbuf, at, rcounts[i], rdt, i, true)
		if err != nil {
			return fmt.Errorf("core: Gatherv from %d: %w", i, err)
		}
		blocks = append(blocks, b)
	}
	algo := mpe.AlgoStoreForward
	if len(blocks) > 0 {
		algo = mpe.AlgoPipelined
	}
	c.recordAlgo(mpe.CollGatherv, algo, gatheredBytes(rcounts, rdt))
	for i := 0; i < n; i++ {
		if i == rank || chooseBlockStream(payloadBytes(rcounts[i], rdt), rdt) {
			continue
		}
		if err := c.collRecv(recvbuf, roff+displs[i]*rdt.extent, rcounts[i], rdt, i, tagGather); err != nil {
			return fmt.Errorf("core: Gatherv from %d: %w", i, err)
		}
	}
	if len(blocks) > 0 {
		if err := c.streamBlocksIn(blocks); err != nil {
			return fmt.Errorf("core: Gatherv streams: %w", err)
		}
	}
	// Copied last: a root buffer it does not fit fails after the peers.
	if err := localCopy(sendbuf, soff, scount, sdt, recvbuf, roff+displs[rank]*rdt.extent, rcounts[rank], rdt); err != nil {
		return fmt.Errorf("core: Gatherv self: %w", err)
	}
	return nil
}

// Scatter distributes scount items of sdt to each process from root's
// sendbuf, rank i receiving the block at item offset i*scount.
func (c *Intracomm) Scatter(sendbuf any, soff, scount int, sdt *Datatype,
	recvbuf any, roff, rcount int, rdt *Datatype, root int) error {
	defer c.phase(mpe.CollScatter)()
	n := c.Size()
	counts := make([]int, n)
	displs := make([]int, n)
	for i := range counts {
		counts[i] = scount
		displs[i] = i * scount
	}
	return c.Scatterv(sendbuf, soff, counts, displs, sdt, recvbuf, roff, rcount, rdt, root)
}

// Scatterv distributes varying counts from root. Blocks above the
// segment size leave the root as windowed segment streams, all
// destinations' pipelines filling concurrently; the rest go whole.
func (c *Intracomm) Scatterv(sendbuf any, soff int, scounts, displs []int, sdt *Datatype,
	recvbuf any, roff, rcount int, rdt *Datatype, root int) error {
	defer c.phase(mpe.CollScatterv)()
	n := c.Size()
	rank := c.Rank()
	if root < 0 || root >= n {
		return fmt.Errorf("core: Scatterv: root %d out of range", root)
	}
	if rank != root {
		if chooseBlockStream(payloadBytes(rcount, rdt), rdt) {
			c.recordAlgo(mpe.CollScatterv, mpe.AlgoPipelined, payloadBytes(rcount, rdt))
			if err := c.streamBlockRecv(recvbuf, roff, rcount, rdt, root); err != nil {
				return fmt.Errorf("core: Scatterv stream from root: %w", err)
			}
			return nil
		}
		c.recordAlgo(mpe.CollScatterv, mpe.AlgoStoreForward, payloadBytes(rcount, rdt))
		return c.collRecv(recvbuf, roff, rcount, rdt, root, tagScatter)
	}
	if len(scounts) != n || len(displs) != n {
		return fmt.Errorf("core: Scatterv: need %d counts/displs, have %d/%d", n, len(scounts), len(displs))
	}
	var blocks []*blockStream
	for i := 0; i < n; i++ {
		at := soff + displs[i]*sdt.extent
		if i == rank {
			continue
		}
		if chooseBlockStream(payloadBytes(scounts[i], sdt), sdt) {
			b, err := newBlockStream(sendbuf, at, scounts[i], sdt, i, false)
			if err != nil {
				return fmt.Errorf("core: Scatterv to %d: %w", i, err)
			}
			blocks = append(blocks, b)
			continue
		}
		if err := c.collSend(sendbuf, at, scounts[i], sdt, i, tagScatter); err != nil {
			return fmt.Errorf("core: Scatterv to %d: %w", i, err)
		}
	}
	algo := mpe.AlgoStoreForward
	if len(blocks) > 0 {
		algo = mpe.AlgoPipelined
	}
	c.recordAlgo(mpe.CollScatterv, algo, gatheredBytes(scounts, sdt))
	if len(blocks) > 0 {
		if err := c.streamBlocksOut(blocks); err != nil {
			return fmt.Errorf("core: Scatterv streams: %w", err)
		}
	}
	// Copied last: a root buffer it does not fit fails after the peers.
	if err := localCopy(sendbuf, soff+displs[rank]*sdt.extent, scounts[rank], sdt, recvbuf, roff, rcount, rdt); err != nil {
		return fmt.Errorf("core: Scatterv self: %w", err)
	}
	return nil
}

// Allgather gathers every process's scount items into every process's
// recvbuf (gather to rank 0, then broadcast).
func (c *Intracomm) Allgather(sendbuf any, soff, scount int, sdt *Datatype,
	recvbuf any, roff, rcount int, rdt *Datatype) error {
	defer c.phase(mpe.CollAllgather)()
	if err := c.Gather(sendbuf, soff, scount, sdt, recvbuf, roff, rcount, rdt, 0); err != nil {
		return err
	}
	return c.Bcast(recvbuf, roff, rcount*c.Size(), rdt, 0)
}

// Allgatherv is the varying-count Allgather. Large payloads move by a
// bandwidth-optimal ring; small ones by gather + per-block broadcast.
func (c *Intracomm) Allgatherv(sendbuf any, soff, scount int, sdt *Datatype,
	recvbuf any, roff int, rcounts, displs []int, rdt *Datatype) error {
	defer c.phase(mpe.CollAllgatherv)()
	n := c.Size()
	if len(rcounts) != n || len(displs) != n {
		return fmt.Errorf("core: Allgatherv: need %d counts/displs, have %d/%d", n, len(rcounts), len(displs))
	}
	if n > 2 && gatheredBytes(rcounts, rdt) >= ringThresholdBytes {
		c.recordAlgo(mpe.CollAllgatherv, mpe.AlgoRing, gatheredBytes(rcounts, rdt))
		rank := c.Rank()
		at := roff + displs[rank]*rdt.extent
		if err := localCopy(sendbuf, soff, scount, sdt, recvbuf, at, rcounts[rank], rdt); err != nil {
			return fmt.Errorf("core: Allgatherv self: %w", err)
		}
		return c.allgathervRing(recvbuf, roff, rcounts, displs, rdt)
	}
	c.recordAlgo(mpe.CollAllgatherv, mpe.AlgoStoreForward, gatheredBytes(rcounts, rdt))
	if err := c.Gatherv(sendbuf, soff, scount, sdt, recvbuf, roff, rcounts, displs, rdt, 0); err != nil {
		return err
	}
	// Broadcast each block so displacement gaps are preserved.
	for i := 0; i < n; i++ {
		at := roff + displs[i]*rdt.extent
		if err := c.Bcast(recvbuf, at, rcounts[i], rdt, 0); err != nil {
			return err
		}
	}
	return nil
}

// Alltoall sends a distinct scount-item block to every process and
// receives one from each (pairwise exchange schedule).
func (c *Intracomm) Alltoall(sendbuf any, soff, scount int, sdt *Datatype,
	recvbuf any, roff, rcount int, rdt *Datatype) error {
	defer c.phase(mpe.CollAlltoall)()
	n := c.Size()
	scounts := make([]int, n)
	sdispls := make([]int, n)
	rcounts := make([]int, n)
	rdispls := make([]int, n)
	for i := 0; i < n; i++ {
		scounts[i], sdispls[i] = scount, i*scount
		rcounts[i], rdispls[i] = rcount, i*rcount
	}
	return c.Alltoallv(sendbuf, soff, scounts, sdispls, sdt, recvbuf, roff, rcounts, rdispls, rdt)
}

// Alltoallv is the varying-count Alltoall.
func (c *Intracomm) Alltoallv(sendbuf any, soff int, scounts, sdispls []int, sdt *Datatype,
	recvbuf any, roff int, rcounts, rdispls []int, rdt *Datatype) error {
	defer c.phase(mpe.CollAlltoallv)()
	n := c.Size()
	rank := c.Rank()
	if len(scounts) != n || len(sdispls) != n || len(rcounts) != n || len(rdispls) != n {
		return fmt.Errorf("core: Alltoallv: counts/displs must have length %d", n)
	}
	// Self block.
	if err := localCopy(sendbuf, soff+sdispls[rank]*sdt.extent, scounts[rank], sdt,
		recvbuf, roff+rdispls[rank]*rdt.extent, rcounts[rank], rdt); err != nil {
		return fmt.Errorf("core: Alltoallv self: %w", err)
	}
	// Pairwise exchange: in step k talk to rank±k.
	for k := 1; k < n; k++ {
		dst := (rank + k) % n
		src := (rank - k + n) % n
		req, sb, err := c.collIsend(sendbuf, soff+sdispls[dst]*sdt.extent, scounts[dst], sdt, dst, tagAlltoall)
		if err != nil {
			return fmt.Errorf("core: Alltoallv send to %d: %w", dst, err)
		}
		if err := c.collRecv(recvbuf, roff+rdispls[src]*rdt.extent, rcounts[src], rdt, src, tagAlltoall); err != nil {
			return fmt.Errorf("core: Alltoallv recv from %d: %w", src, err)
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		putSendBuf(sb)
	}
	return nil
}

// Reduce combines count items of dt from every process with op,
// leaving the result in root's recvbuf. Commutative ops ride a
// binomial tree, pipelined per segment above the segment size;
// non-commutative ops use a streamed rank-ordered fold whose root
// memory is bounded by the window.
func (c *Intracomm) Reduce(sendbuf any, soff int, recvbuf any, roff, count int,
	dt *Datatype, op *Op, root int) error {
	defer c.phase(mpe.CollReduce)()
	n := c.Size()
	rank := c.Rank()
	if root < 0 || root >= n {
		return fmt.Errorf("core: Reduce: root %d out of range", root)
	}
	scratch, err := toScratch(sendbuf, soff, count, dt)
	if err != nil {
		return err
	}
	bdt, err := baseDt(scratch)
	if err != nil {
		return err
	}
	elems := count * dt.Size()

	bytes := payloadBytes(count, dt)
	algo := c.chooseReduce(bytes, dt, op)
	c.recordAlgo(mpe.CollReduce, algo, bytes)
	switch algo {
	case mpe.AlgoStreamedFold:
		if err := c.reduceStreamedFold(scratch, elems, bdt, op, recvbuf, roff, count, dt, root); err != nil {
			return fmt.Errorf("core: Reduce: %w", err)
		}
		return nil
	case mpe.AlgoPipelined:
		if err := c.reducePipelined(scratch, elems, bdt, op, recvbuf, roff, count, dt, root); err != nil {
			return fmt.Errorf("core: Reduce: %w", err)
		}
		return nil
	case mpe.AlgoHierarchical:
		if err := c.reduceHier(scratch, elems, bdt, op, root); err != nil {
			return fmt.Errorf("core: Reduce: %w", err)
		}
		if rank == root {
			return fromScratch(scratch, recvbuf, roff, count, dt)
		}
		return nil
	}

	// Store-and-forward: fold whole payloads up the binomial tree.
	rel := (rank - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (rel - mask + root) % n
			if err := c.collSend(scratch, 0, elems, bdt, parent, tagReduce); err != nil {
				return err
			}
			break
		}
		partner := rel | mask
		if partner < n {
			in, err := allocLike(scratch, elems)
			if err != nil {
				return err
			}
			src := (partner + root) % n
			if err := c.collRecv(in, 0, elems, bdt, src, tagReduce); err != nil {
				return err
			}
			if err := op.apply(in, scratch); err != nil {
				return err
			}
		}
		mask <<= 1
	}
	if rank == root {
		return fromScratch(scratch, recvbuf, roff, count, dt)
	}
	return nil
}

// Allreduce combines like Reduce and distributes the result to every
// process. Commutative operators use recursive doubling (log2(n)
// exchange rounds) for small payloads and a Rabenseifner-style
// reduce-scatter + allgather once bandwidth dominates; non-commutative
// ones fall back to the rank-ordered reduce followed by a broadcast.
func (c *Intracomm) Allreduce(sendbuf any, soff int, recvbuf any, roff, count int,
	dt *Datatype, op *Op) error {
	defer c.phase(mpe.CollAllreduce)()
	if !op.commute {
		c.recordAlgo(mpe.CollAllreduce, mpe.AlgoStoreForward, payloadBytes(count, dt))
		if err := c.Reduce(sendbuf, soff, recvbuf, roff, count, dt, op, 0); err != nil {
			return err
		}
		return c.Bcast(recvbuf, roff, count, dt, 0)
	}
	elems := count * dt.Size()
	in, _, err := contiguousView(sendbuf, soff, count, dt, false)
	if err != nil {
		return err
	}
	bdt, err := baseDt(in)
	if err != nil {
		return err
	}
	// A contiguous layout reduces in place in recvbuf, where the
	// contribution is copied once; others in sendbuf's gathered scratch.
	work := in
	if dt.IsContiguous() {
		if work, _, err = contiguousView(recvbuf, roff, count, dt, false); err != nil {
			return err
		}
		if err := fromScratch(in, work, 0, elems, bdt); err != nil {
			return fmt.Errorf("core: Allreduce: %w", err)
		}
	}
	bytes := payloadBytes(count, dt)
	algo := c.chooseAllreduce(bytes, elems, dt, op)
	c.recordAlgo(mpe.CollAllreduce, algo, bytes)
	switch algo {
	case mpe.AlgoReduceScatterAllgather:
		if err := c.allreduceRSAG(work, elems, bdt, op); err != nil {
			return fmt.Errorf("core: Allreduce: %w", err)
		}
	case mpe.AlgoHierarchical:
		if err := c.allreduceHier(work, elems, bdt, op); err != nil {
			return fmt.Errorf("core: Allreduce: %w", err)
		}
	default:
		if err := c.allreduceRD(work, elems, bdt, op); err != nil {
			return err
		}
	}
	if dt.IsContiguous() {
		return nil
	}
	return fromScratch(work, recvbuf, roff, count, dt)
}

// ReduceScatter combines sum(recvcounts) items with op and scatters the
// result: rank i receives recvcounts[i] items.
func (c *Intracomm) ReduceScatter(sendbuf any, soff int, recvbuf any, roff int,
	recvcounts []int, dt *Datatype, op *Op) error {
	defer c.phase(mpe.CollReduceScatter)()
	n := c.Size()
	if len(recvcounts) != n {
		return fmt.Errorf("core: ReduceScatter: need %d counts, have %d", n, len(recvcounts))
	}
	total := 0
	displs := make([]int, n)
	for i, cnt := range recvcounts {
		displs[i] = total
		total += cnt
	}
	// Reduce the full vector to rank 0, then scatter it by counts. The
	// intermediate buffer is laid out with dt's own extent so Scatterv
	// can address per-rank blocks by item displacement.
	fullLen := 0
	if c.Rank() == 0 {
		fullLen = total * dt.extent
	}
	full, err := allocLike(sendbuf, fullLen)
	if err != nil {
		return err
	}
	if err := c.Reduce(sendbuf, soff, full, 0, total, dt, op, 0); err != nil {
		return err
	}
	return c.Scatterv(full, 0, recvcounts, displs, dt, recvbuf, roff, recvcounts[c.Rank()], dt, 0)
}

// Scan computes the inclusive prefix reduction: rank i receives
// buf_0 op buf_1 op ... op buf_i (linear chain).
func (c *Intracomm) Scan(sendbuf any, soff int, recvbuf any, roff, count int,
	dt *Datatype, op *Op) error {
	defer c.phase(mpe.CollScan)()
	n := c.Size()
	rank := c.Rank()
	acc, err := toScratch(sendbuf, soff, count, dt)
	if err != nil {
		return err
	}
	bdt, err := baseDt(acc)
	if err != nil {
		return err
	}
	elems := count * dt.Size()
	if rank > 0 {
		prefix, err := allocLike(acc, elems)
		if err != nil {
			return err
		}
		if err := c.collRecv(prefix, 0, elems, bdt, rank-1, tagScan); err != nil {
			return err
		}
		if err := op.apply(prefix, acc); err != nil {
			return err
		}
	}
	if rank < n-1 {
		if err := c.collSend(acc, 0, elems, bdt, rank+1, tagScan); err != nil {
			return err
		}
	}
	return fromScratch(acc, recvbuf, roff, count, dt)
}

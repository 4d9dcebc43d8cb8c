package rank

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mpj"
	"mpj/bench/stats"
)

// Workload describes one benchmark workload. All five are closed
// loops: every caller blocks for its reply (or its credit) before
// issuing more work, so a slower library receives less load.
type Workload struct {
	Name string
	// Why says which layers the workload stresses and which it
	// bypasses; it is copied into BENCHMARK.json and the README.
	Why string
	// NP ranks on Device; process workloads run as OS processes
	// launched through mpjrt over loopback TCP, the others as goroutine
	// ranks under RunLocalOpts with placement NodeMap.
	NP      int
	Device  string
	NodeMap string
	Process bool
	// Env is added to the environment of every rank process.
	Env []string
	// OpBytes is the payload of one op, the byte base of MB/s.
	OpBytes int
	// ExactProtocol says the job must send exactly EagerPerOp eager and
	// RndvPerOp rendezvous messages per op in the timed phase; anything
	// else means the workload is not exercising the path it claims.
	ExactProtocol         bool
	EagerPerOp, RndvPerOp uint64

	phase func(c *run, d time.Duration) (phaseResult, error)
}

// Workloads lists the benchmark's workloads in run order.
var Workloads = []Workload{
	{
		Name: "pingpong_eager_8B",
		Why:  "2 OS processes, 8 B eager ping-pong over loopback TCP: per-message software path (request, match, completion, send queue, syscall) is all the cost; pack and copy are ~0",
		NP:   2, Device: "niodev", Process: true, OpBytes: 8,
		// One P per rank. An 8 B ping-pong has a single caller per
		// rank, and with the default two Ps per process on a 2-core host
		// most of the op is the Go scheduler waking idle Ms, at a level
		// (13–32 µs measured) that each launch settles into anew. One P
		// gives 18 µs with a tenth of that scatter, which is what lets
		// this workload hold a 0.10 bound. See README, "What one run is".
		Env:           []string{"GOMAXPROCS=1"},
		ExactProtocol: true, EagerPerOp: 1,
		phase: func(c *run, d time.Duration) (phaseResult, error) {
			return pingpong(c, d, newBytePayload(c.seed, 8))
		},
	},
	{
		Name: "pingpong_rndv_1MiB_double",
		Why:  "2 OS processes, 1 MiB DOUBLE rendezvous ping-pong: pack/unpack, mpjbuf, handshake and bulk copy dominate; matching is ~0 (the paper's packing-overhead case)",
		NP:   2, Device: "niodev", Process: true, OpBytes: 1 << 20,
		ExactProtocol: true, RndvPerOp: 1,
		phase: func(c *run, d time.Duration) (phaseResult, error) {
			return pingpong(c, d, newDoublePayload(c.seed, 1<<17))
		},
	},
	{
		Name: "msgrate_mt_512B",
		Why:  "2 OS processes, 4 sender goroutines stream 512 B to 4 receivers with a 1024-message credit window: MPI_THREAD_MULTIPLE contention on niodev's send path and devcore's lock",
		NP:   2, Device: "niodev", Process: true, OpBytes: 512,
		phase: msgRate,
	},
	{
		Name: "coll_step_hybrid_np4",
		Why:  "in-process hybrid np=4 on 2 simulated nodes, Bcast 1 MiB + Allreduce 256 KiB + Barrier per step: collective algorithms and the hierarchical path; no OS sockets, transport syscalls ~0",
		NP:   4, Device: "hybrid", NodeMap: "0,0,1,1", OpBytes: 1<<20 + 256<<10,
		phase: collStep,
	},
	{
		Name: "fanin_anysource_smp_np4",
		Why:  "in-process smpdev np=4 master/worker, 64 posted ANY_SOURCE/ANY_TAG receives drained by WaitAny: wildcard indexes, unexpected queue and Peek with zero transport",
		NP:   4, Device: "smpdev", OpBytes: 64,
		phase: fanIn,
	},
}

// Lookup finds a workload by name.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// ---- seeded payloads -------------------------------------------------

// Message flags carried in the payload head, so ranks agree on when a
// phase ends without a second message or a wildcard receive.
const (
	flagStop  = 1 // last message of the phase
	flagDrain = 2 // fan-in: sent after the stop credit, not an op
)

// payload is a seeded message body with the iteration number and flags
// stamped into its head, so a stale or misrouted buffer fails verify.
type payload interface {
	newBuf() any
	count() int
	datatype() *mpj.Datatype
	stamp(buf any, i int64, flags int)
	// verify checks that buf holds iteration i's message of n elements
	// and returns its flags.
	verify(buf any, n int, i int64) (flags int, ok bool)
}

// bytePayload is n ≥ 8 seeded bytes; the first 8 hold (i<<2 | flags)
// xor a seeded mask. Verified in full.
type bytePayload struct {
	base []byte
	mask uint64
}

func newBytePayload(seed int64, n int) *bytePayload {
	rng := rand.New(rand.NewSource(seed))
	p := &bytePayload{base: make([]byte, n), mask: rng.Uint64()}
	rng.Read(p.base)
	return p
}

func (p *bytePayload) newBuf() any             { return append([]byte(nil), p.base...) }
func (p *bytePayload) count() int              { return len(p.base) }
func (p *bytePayload) datatype() *mpj.Datatype { return mpj.BYTE }

func (p *bytePayload) stamp(buf any, i int64, flags int) {
	binary.LittleEndian.PutUint64(buf.([]byte), (uint64(i)<<2|uint64(flags))^p.mask)
}

// iteration reads the iteration number stamped into buf.
func (p *bytePayload) iteration(buf []byte) int64 {
	return int64((binary.LittleEndian.Uint64(buf) ^ p.mask) >> 2)
}

func (p *bytePayload) verify(buf any, n int, i int64) (int, bool) {
	b := buf.([]byte)
	head := binary.LittleEndian.Uint64(b) ^ p.mask
	ok := n == len(p.base) && int64(head>>2) == i && bytes.Equal(b[8:], p.base[8:])
	return int(head & 3), ok
}

// doublePayload is n seeded integer-valued float64s with [0] the
// iteration and [1] the flags. Verified on length and the first and
// last 64 B — a full compare of 1 MiB per message would itself be a
// measurable share of the op.
type doublePayload struct{ base []float64 }

const edge = 8 // float64s in 64 B

func newDoublePayload(seed int64, n int) *doublePayload {
	rng := rand.New(rand.NewSource(seed))
	p := &doublePayload{base: make([]float64, n)}
	for i := range p.base {
		p.base[i] = float64(rng.Intn(1 << 20))
	}
	return p
}

func (p *doublePayload) newBuf() any             { return append([]float64(nil), p.base...) }
func (p *doublePayload) count() int              { return len(p.base) }
func (p *doublePayload) datatype() *mpj.Datatype { return mpj.DOUBLE }

func (p *doublePayload) stamp(buf any, i int64, flags int) {
	b := buf.([]float64)
	b[0], b[1] = float64(i), float64(flags)
}

func (p *doublePayload) verify(buf any, n int, i int64) (int, bool) {
	b := buf.([]float64)
	last := len(p.base) - edge
	ok := n == len(p.base) && b[0] == float64(i)
	for k := 2; k < edge; k++ {
		ok = ok && b[k] == p.base[k]
	}
	for k := last; k < len(p.base); k++ {
		ok = ok && b[k] == p.base[k]
	}
	return int(b[1]), ok
}

// equalAll is the full bit-exact compare of a received array against
// the expected one, skipping the first skip elements (stamped heads).
func equalAll(got, want []float64, skip int) bool {
	for k := skip; k < len(want); k++ {
		if got[k] != want[k] {
			return false
		}
	}
	return true
}

// stagger sleeps a seeded 0–200 µs so concurrent senders do not start
// a phase in lock-step.
func stagger(seed int64) {
	time.Sleep(time.Duration(rand.New(rand.NewSource(seed)).Intn(200)) * time.Microsecond)
}

// ---- workloads 1 and 2: ping-pong ------------------------------------

// pingpong bounces pl between ranks 0 and 1 until d has passed. Rank 0
// stamps, sends, receives the echo and verifies it; rank 1 verifies and
// echoes the buffer it received. One round trip is two ops (one-way
// messages), so the op time is RTT/2.
func pingpong(c *run, d time.Duration, pl payload) (phaseResult, error) {
	res := phaseResult{op: stats.NewSampler(1 << 17)}
	out, in := pl.newBuf(), pl.newBuf()
	n, dt := pl.count(), pl.datatype()
	const tag = 7
	rec := c.recorder(0)
	res.recs = []*Recorder{rec}

	if c.rank == 1 {
		for i := int64(0); ; i++ {
			t0 := rec.Now()
			st, err := c.w.Recv(in, 0, n, dt, 0, tag)
			if err != nil {
				return res, err
			}
			t1 := rec.End(recvWait, i, t0)
			flags, ok := pl.verify(in, st.Count(), i)
			if !ok {
				res.failed++
			}
			if err := c.w.Send(in, 0, n, dt, 0, tag); err != nil {
				return res, err
			}
			rec.End(sendCall, i, t1)
			res.received++
			res.sent++
			c.progress.Add(1)
			if flags&flagStop != 0 {
				return res, nil
			}
		}
	}

	start := time.Now()
	deadline := start.Add(d)
	t := start
	for i := int64(0); ; i++ {
		flags := 0
		if !t.Before(deadline) {
			flags = flagStop
		}
		pl.stamp(out, i, flags)
		t0 := rec.Now()
		if err := c.w.Send(out, 0, n, dt, 1, tag); err != nil {
			return res, err
		}
		t1 := rec.End(sendCall, i, t0)
		st, err := c.w.Recv(in, 0, n, dt, 1, tag)
		if err != nil {
			return res, err
		}
		rec.End(recvWait, i, t1)
		rec.End(opSpan, i, t0)
		now := time.Now()
		res.op.Add(float64(now.Sub(t)) / 2e3)
		t = now
		if _, ok := pl.verify(in, st.Count(), i); !ok {
			res.failed += 2 // neither direction of the round trip is trusted
		}
		res.sent++
		res.received++
		res.ops += 2
		c.progress.Add(1)
		if flags&flagStop != 0 {
			res.wall = now.Sub(start)
			return res, nil
		}
	}
}

// ---- workload 3: multi-threaded message rate --------------------------

const (
	rateThreads = 4
	rateWindow  = 1024
	rateBytes   = 512
)

// msgRate streams 512 B messages from rateThreads goroutines of rank 0
// to as many on rank 1, each pair on its own tag, pausing for a credit
// every rateWindow messages. A timing sample is one window of one
// goroutine divided by the window, so the op time is what one sender
// sees per message while the others contend for the same device.
func msgRate(c *run, d time.Duration) (phaseResult, error) {
	res := phaseResult{op: stats.NewSampler(1 << 15)}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make([]error, rateThreads)
	)
	res.recs = make([]*Recorder, rateThreads)
	start := time.Now()
	deadline := start.Add(d)
	for g := 0; g < rateThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := c.recorder(g)
			res.recs[g] = rec
			pl := newBytePayload(c.seed+int64(g), rateBytes)
			buf := pl.newBuf()
			credit := make([]int64, 1)
			var ops, failed int64
			var samples []float64
			defer func() {
				mu.Lock()
				res.ops += ops
				res.failed += failed
				for _, s := range samples {
					res.op.Add(s)
				}
				mu.Unlock()
			}()

			if c.rank == 1 {
				for i := int64(0); ; i++ {
					t0 := rec.Now()
					st, err := c.w.Recv(buf, 0, rateBytes, mpj.BYTE, 0, g)
					if err != nil {
						errs[g] = err
						return
					}
					rec.End(recvWait, i, t0)
					flags, ok := pl.verify(buf, st.Count(), i)
					if flags&flagStop != 0 {
						return
					}
					if !ok {
						failed++
					}
					ops++
					if (i+1)%rateWindow == 0 {
						if err := c.w.Send(credit, 0, 1, mpj.LONG, 0, g); err != nil {
							errs[g] = err
							return
						}
						c.progress.Add(1)
					}
				}
			}

			stagger(c.seed + int64(g))
			i := int64(0)
			for {
				t := time.Now()
				for j := 0; j < rateWindow; j++ {
					pl.stamp(buf, i, 0)
					t0 := rec.Now()
					if err := c.w.Send(buf, 0, rateBytes, mpj.BYTE, 1, g); err != nil {
						errs[g] = err
						return
					}
					rec.End(sendCall, i, t0)
					i++
				}
				t0 := rec.Now()
				if _, err := c.w.Recv(credit, 0, 1, mpj.LONG, 1, g); err != nil {
					errs[g] = err
					return
				}
				rec.End(recvWait, i, t0)
				now := time.Now()
				samples = append(samples, float64(now.Sub(t))/(rateWindow*1e3))
				ops += rateWindow
				c.progress.Add(1)
				if !now.Before(deadline) {
					break
				}
			}
			pl.stamp(buf, i, flagStop)
			errs[g] = c.w.Send(buf, 0, rateBytes, mpj.BYTE, 1, g)
		}(g)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	if c.rank == 0 {
		res.sent = res.ops
	} else {
		res.received = res.ops
		res.ops = 0 // ops are counted once, at the measuring rank
	}
	return res, nil
}

// ---- workload 4: collective solver step -------------------------------

const (
	bcastCount     = 1 << 17 // 1 MiB of DOUBLE
	allreduceCount = 1 << 15 // 256 KiB of DOUBLE
	fullCheckEvery = 16
)

// collStep runs solver-style steps — Bcast 1 MiB from rank 0, Allreduce
// 256 KiB SUM, Barrier — until rank 0, which carries the stop flag in
// the broadcast payload, has run for d. Values are integer-valued
// float64 so every reduction order gives the same bits. Every step
// checks lengths and the first/last 64 B of both results; every
// fullCheckEvery-th step and the last compare both arrays in full.
func collStep(c *run, d time.Duration) (phaseResult, error) {
	res := phaseResult{op: stats.NewSampler(1 << 14)}
	rec := c.recorder(0)
	res.recs = []*Recorder{rec}
	size := c.w.Size()

	bc := newDoublePayload(c.seed, bcastCount)
	bbuf := bc.newBuf().([]float64)
	// Rank r contributes base[k] + r (and the step number in [0]); the
	// expected sum follows from the seed alone.
	contrib := newDoublePayload(c.seed+1, allreduceCount).base
	want := make([]float64, allreduceCount)
	for k := range want {
		want[k] = float64(size)*contrib[k] + float64(size*(size-1)/2)
	}
	for k := range contrib {
		contrib[k] += float64(c.rank)
	}
	sum := make([]float64, allreduceCount)

	start := time.Now()
	deadline := start.Add(d)
	for i := int64(0); ; i++ {
		t := time.Now()
		if c.rank == 0 {
			flags := 0
			if !t.Before(deadline) {
				flags = flagStop
			}
			bc.stamp(bbuf, i, flags)
		}
		contrib[0] = float64(i)
		t0 := rec.Now()
		if err := c.w.Bcast(bbuf, 0, bcastCount, mpj.DOUBLE, 0); err != nil {
			return res, err
		}
		t1 := rec.End(bcastCall, i, t0)
		if err := c.w.Allreduce(contrib, 0, sum, 0, allreduceCount, mpj.DOUBLE, mpj.SUM); err != nil {
			return res, err
		}
		t2 := rec.End(allreduceCall, i, t1)
		if err := c.w.Barrier(); err != nil {
			return res, err
		}
		rec.End(barrierCall, i, t2)
		rec.End(opSpan, i, t0)
		now := time.Now()

		flags, ok := bc.verify(bbuf, bcastCount, i)
		stop := flags&flagStop != 0
		want[0] = float64(size) * float64(i)
		for k := 0; k < edge; k++ {
			ok = ok && sum[k] == want[k] && sum[allreduceCount-1-k] == want[allreduceCount-1-k]
		}
		if stop || i%fullCheckEvery == 0 {
			ok = ok && equalAll(bbuf, bc.base, 2) && equalAll(sum, want, 0)
		}
		if !ok {
			res.failed++
		}
		res.ops++
		c.progress.Add(1)
		if c.rank == 0 {
			res.op.Add(float64(now.Sub(t)) / 1e3)
		}
		if stop {
			res.wall = now.Sub(start)
			break
		}
	}
	if c.rank != 0 {
		// A step is one op for the job, not one per rank; the other
		// ranks report only their check failures.
		res.ops, res.op = 0, nil
	}
	return res, nil
}

// ---- workload 5: wildcard fan-in --------------------------------------

const (
	fanPosted = 64   // receives rank 0 keeps posted
	fanBytes  = 64   // message size
	fanWindow = 32   // messages a worker sends per credit
	fanTags   = 64   // length of each worker's tag permutation
	creditTag = 1000 // outside the workers' tag range
)

// fanDrain is how many drain messages worker w (1-based) sends after
// its stop credit: together exactly the fanPosted receives rank 0 still
// has posted, so the phase ends with nothing pending on either side.
func fanDrain(w, workers int) int {
	n := fanPosted / workers
	if w <= fanPosted%workers {
		n++
	}
	return n
}

// fanIn is the paper's master/worker pattern (§V-A). Rank 0 keeps
// fanPosted Irecv(ANY_SOURCE, ANY_TAG) posted, drains them with WaitAny
// and re-posts each; every other rank sends 64 B messages under a
// seeded tag permutation, fanWindow per credit. A timing sample is
// fanPosted completions at rank 0 divided by fanPosted.
func fanIn(c *run, d time.Duration) (phaseResult, error) {
	res := phaseResult{op: stats.NewSampler(1 << 15)}
	rec := c.recorder(0)
	res.recs = []*Recorder{rec}
	workers := c.w.Size() - 1
	credit := make([]int64, 1)

	if c.rank != 0 {
		pl := newBytePayload(c.seed+int64(c.rank), fanBytes)
		tags := rand.New(rand.NewSource(c.seed + int64(c.rank))).Perm(fanTags)
		buf := pl.newBuf()
		stagger(c.seed + int64(c.rank))
		i := int64(0)
		send := func(count, flags int) error {
			for j := 0; j < count; j++ {
				pl.stamp(buf, i, flags)
				t0 := rec.Now()
				if err := c.w.Send(buf, 0, fanBytes, mpj.BYTE, 0, tags[i%fanTags]); err != nil {
					return err
				}
				rec.End(sendCall, i, t0)
				i++
			}
			return nil
		}
		for {
			if err := send(fanWindow, 0); err != nil {
				return res, err
			}
			res.sent += fanWindow
			t0 := rec.Now()
			if _, err := c.w.Recv(credit, 0, 1, mpj.LONG, 0, creditTag); err != nil {
				return res, err
			}
			rec.End(recvWait, i, t0)
			c.progress.Add(1)
			if credit[0] == flagStop {
				return res, send(fanDrain(c.rank, workers), flagDrain)
			}
		}
	}

	// Rank 0: per-source verifiers. MPI orders matching per source, not
	// the order WaitAny hands completions back, so a message is checked
	// against the iteration it carries (which fixes its tag), and each
	// stream is checked for gaps and repeats by count and sum.
	pls := make([]*bytePayload, workers+1)
	tags := make([][]int, workers+1)
	for w := 1; w <= workers; w++ {
		pls[w] = newBytePayload(c.seed+int64(w), fanBytes)
		tags[w] = rand.New(rand.NewSource(c.seed + int64(w))).Perm(fanTags)
	}
	next := make([]int64, workers+1)    // messages received per source
	iterSum := make([]int64, workers+1) // sum of their iteration numbers
	stopped := 0
	bufs := make([][]byte, fanPosted)
	reqs := make([]*mpj.Request, fanPosted)
	post := func(k int) (err error) {
		reqs[k], err = c.w.Irecv(bufs[k], 0, fanBytes, mpj.BYTE, mpj.AnySource, mpj.AnyTag)
		return err
	}
	for k := range reqs {
		bufs[k] = make([]byte, fanBytes)
		if err := post(k); err != nil {
			return res, err
		}
	}

	start := time.Now()
	deadline := start.Add(d)
	t := start
	for pending := fanPosted; pending > 0; {
		t0 := rec.Now()
		k, st, err := mpj.WaitAny(reqs)
		if err != nil {
			return res, err
		}
		rec.End(waitAny, res.ops, t0)
		src := st.Source
		if src < 1 || src > workers {
			return res, fmt.Errorf("fan-in: message from rank %d", src)
		}
		i := pls[src].iteration(bufs[k])
		next[src]++
		iterSum[src] += i
		flags, ok := pls[src].verify(bufs[k], st.Count(), i)
		if !ok || st.Tag != tags[src][i%fanTags] {
			res.failed++
		}
		if flags&flagDrain != 0 {
			reqs[k] = nil
			pending--
			continue
		}
		res.ops++
		res.received++
		c.progress.Add(1)
		if res.ops%fanPosted == 0 {
			now := time.Now()
			res.op.Add(float64(now.Sub(t)) / (fanPosted * 1e3))
			t = now
		}
		if err := post(k); err != nil {
			return res, err
		}
		if next[src]%fanWindow == 0 {
			credit[0] = 0
			if !time.Now().Before(deadline) {
				credit[0] = flagStop
				stopped++
			}
			t0 := rec.Now()
			if err := c.w.Send(credit, 0, 1, mpj.LONG, src, creditTag); err != nil {
				return res, err
			}
			rec.End(sendCall, res.ops, t0)
		}
	}
	res.wall = time.Since(start)
	if stopped != workers {
		return res, fmt.Errorf("fan-in: drained with %d of %d workers stopped", stopped, workers)
	}
	for w := 1; w <= workers; w++ {
		if n := next[w]; iterSum[w] != n*(n-1)/2 {
			res.failed++
		}
	}
	return res, nil
}

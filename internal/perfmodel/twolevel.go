package perfmodel

import (
	"math"

	"mpj/internal/netsim"
)

// Two-level collective model. A hybrid job has two message costs: an
// intra-node transfer (one shared-memory handoff on the smpdev route)
// and an inter-node transfer (the full wire protocol on the niodev
// route). The hierarchical collectives in internal/core trade wire
// edges for shared-memory edges; whether that pays depends on the gap
// between the two levels, the message size, and how much of the
// software cost can actually run in parallel. This model predicts the
// per-call time of the flat and hierarchical variants and hence the
// crossover size past which the hierarchical variant should win — the
// number the size×ranks×topology selection table encodes and the
// BenchmarkHybridColl flat-vs-hierarchical comparison measures.
//
// Two regimes bound each prediction, and the model takes their max:
//
//   - the critical path: the chain of sequential transfers through the
//     deepest tree branch, the binding constraint on a real cluster
//     where every rank owns a core and a NIC;
//   - the aggregate software work divided by the CPUs available: on an
//     in-process "cluster" every pack, frame, and copy of every rank
//     competes for the same cores, so total work is the binding
//     constraint (with CPUs=1, time IS the sum of all software costs).
//
// The flat algorithms are modelled placement-blind in the worst case:
// every tree/exchange edge crosses the wire. The scattered placement
// in BenchmarkHybridColl (node = popcount(rank) mod 2) realises this
// exactly — every power-of-two distance flips the node — which is what
// makes the measured scattered numbers directly comparable to these
// predictions.
type TwoLevel struct {
	// Intra is the node-local message cost (smpdev route).
	Intra Series
	// IntraFabric carries the node-local latency/bandwidth.
	IntraFabric netsim.Fabric
	// Inter is the cross-node message cost (niodev route).
	Inter Series
	// InterFabric carries the wire latency/bandwidth.
	InterFabric netsim.Fabric
	// Nodes and RanksPerNode describe the (balanced) placement.
	Nodes        int
	RanksPerNode int
	// CPUs is the effective parallelism available to the software
	// costs. 0 means one core per rank (a real cluster); 1 models the
	// in-process benchmark where every rank shares one core.
	CPUs int
	// SegBytes is the collective segment size (pipelined trees move
	// segments of this size, which stay on the eager path). 0 defaults
	// to 32 KiB, matching internal/core's collCfg.segBytes.
	SegBytes int
	// OpNS is the per-byte cost of applying the reduction operator,
	// counted once per folded stream in the Allreduce predictions. On
	// a real cluster the fold hides behind the wire (leave 0); with
	// CPUs=1 it is serialized work like everything else.
	OpNS float64
}

// P returns the total rank count.
func (t TwoLevel) P() int { return t.Nodes * t.RanksPerNode }

func (t TwoLevel) cpus() int {
	if t.CPUs <= 0 {
		return t.P()
	}
	return t.CPUs
}

func (t TwoLevel) segBytes() int {
	if t.SegBytes <= 0 {
		return 32 << 10
	}
	return t.SegBytes
}

// streamUS is the cost of one pipelined tree edge: the payload moves
// as SegBytes segments, each an eager message (segmentation is what
// keeps the collectives off the rendezvous path).
func (t TwoLevel) streamUS(s Series, f netsim.Fabric, n int) float64 {
	seg := t.segBytes()
	us := 0.0
	for n > 0 {
		c := min(n, seg)
		us += s.OneWayUS(f, c)
		n -= c
	}
	return us
}

// xferUS is the cost of one unsegmented transfer — the RSAG stripes
// and RD vectors of the leader phase, which do switch to rendezvous
// past the eager limit.
func (t TwoLevel) xferUS(s Series, f netsim.Fabric, n int) float64 {
	return s.OneWayUS(f, n)
}

func (t TwoLevel) intraStream(n int) float64 { return t.streamUS(t.Intra, t.IntraFabric, n) }
func (t TwoLevel) interStream(n int) float64 { return t.streamUS(t.Inter, t.InterFabric, n) }
func (t TwoLevel) interXfer(n int) float64   { return t.xferUS(t.Inter, t.InterFabric, n) }

// log2ceil returns ceil(log2(n)), 0 for n <= 1.
func log2ceil(n int) int {
	k := 0
	for p := 1; p < n; p <<= 1 {
		k++
	}
	return k
}

// rsagUS is a Rabenseifner reduce-scatter + allgather critical path
// over p participants: 2·log2(p) rounds, round k exchanging n/2^k
// bytes at the given per-transfer cost.
func rsagUS(p, n int, xfer func(int) float64) float64 {
	if p <= 1 {
		return 0
	}
	us := 0.0
	for k := 1; k <= log2ceil(p); k++ {
		us += 2 * xfer(n>>k)
	}
	return us
}

// bound combines the two regimes: critical path vs aggregate work
// spread over the available cores.
func (t TwoLevel) bound(critUS, aggUS float64) float64 {
	return math.Max(critUS, aggUS/float64(t.cpus()))
}

// FlatBcastUS is the placement-blind pipelined binomial broadcast with
// every edge on the wire: depth edges on the critical path, p-1 edges
// of aggregate work.
func (t TwoLevel) FlatBcastUS(n int) float64 {
	p := t.P()
	edge := t.interStream(n)
	return t.bound(float64(log2ceil(p))*edge, float64(p-1)*edge)
}

// HierBcastUS is the fused two-level broadcast: Nodes-1 wire edges and
// p-Nodes shared-memory edges.
func (t TwoLevel) HierBcastUS(n int) float64 {
	wire := t.interStream(n)
	local := t.intraStream(n)
	crit := float64(log2ceil(t.Nodes))*wire + float64(log2ceil(t.RanksPerNode))*local
	agg := float64(t.Nodes-1)*wire + float64(t.P()-t.Nodes)*local
	return t.bound(crit, agg)
}

// FlatReduceUS / HierReduceUS: the fold trees mirror the broadcast
// trees edge for edge (the op application itself is not modelled).
func (t TwoLevel) FlatReduceUS(n int) float64 { return t.FlatBcastUS(n) }
func (t TwoLevel) HierReduceUS(n int) float64 { return t.HierBcastUS(n) }

// FlatAllreduceUS is the placement-blind reduce-scatter+allgather over
// all p ranks: every round's exchange crosses the wire unsegmented (a
// stripe is one message, rendezvous past the eager limit), and every
// round moves p messages of aggregate work.
func (t TwoLevel) FlatAllreduceUS(n int) float64 {
	p := t.P()
	crit := rsagUS(p, n, t.interXfer)
	// Each rank folds roughly one full vector's worth of received
	// stripes across the reduce-scatter rounds.
	op := float64(n) * t.OpNS / 1000
	return t.bound(crit+op, float64(p)*(crit+op))
}

// HierAllreduceUS is the two-level allreduce: a pipelined intra-node
// fold to the leader, reduce-scatter+allgather across the Nodes
// leaders on the wire, and a pipelined intra-node broadcast back out.
func (t TwoLevel) HierAllreduceUS(n int) float64 {
	local := t.intraStream(n)
	lead := rsagUS(t.Nodes, n, t.interXfer)
	// Every received stream is folded once: p-Nodes child streams in
	// the intra fold, one vector per leader in the leader exchange —
	// p·n bytes of op work in aggregate, ~2n on the critical path.
	op := float64(n) * t.OpNS / 1000
	crit := 2*float64(log2ceil(t.RanksPerNode))*local + lead + 2*op
	agg := 2*float64(t.P()-t.Nodes)*local + float64(t.Nodes)*lead + float64(t.P())*op
	return t.bound(crit, agg)
}

// CrossoverBytes sweeps doubling sizes and returns the smallest
// message size from which hier stays at or below flat for the rest of
// the sweep (up to 16 MiB) — the predicted switch point for the
// selection table. Returns 0 when hier never wins, and 1 when it wins
// everywhere.
func CrossoverBytes(flat, hier func(int) float64) int {
	crossover := 0
	won := false
	for n := 1; n <= 16<<20; n *= 2 {
		if hier(n) <= flat(n) {
			if !won {
				crossover, won = n, true
			}
		} else {
			crossover, won = 0, false
		}
	}
	return crossover
}

// AllreduceCrossoverBytes is the predicted Allreduce switch point.
func (t TwoLevel) AllreduceCrossoverBytes() int {
	return CrossoverBytes(t.FlatAllreduceUS, t.HierAllreduceUS)
}

// BcastCrossoverBytes is the predicted Bcast switch point.
func (t TwoLevel) BcastCrossoverBytes() int {
	return CrossoverBytes(t.FlatBcastUS, t.HierBcastUS)
}

// SpeedupAt returns hier's predicted speedup (flat time / hier time)
// for an n-byte payload of the given pair of cost functions.
func SpeedupAt(flat, hier func(int) float64, n int) float64 {
	h := hier(n)
	if h <= 0 {
		return math.Inf(1)
	}
	return flat(n) / h
}

// SharedMemSeries is the intra-node software cost on the hybrid
// device's smpdev route: matching plus one pooled-buffer copy on each
// side — no framing, no protocol switch, no rendezvous.
func SharedMemSeries() Series {
	return Series{
		Name:        "smpdev (intra-node)",
		FixedUS:     2.0,
		EagerCopyNS: 0.35,
		RndvCopyNS:  0.35,
	}
}

// HybridGigE models a hybrid job on the paper's Gigabit Ethernet
// cluster: MPJ Express wire costs between nodes, shared memory within
// them, one core per rank.
func HybridGigE(nodes, ranksPerNode int) TwoLevel {
	inter := EthernetSeries()[0] // "MPJ Express" over niodev
	return TwoLevel{
		Intra:        SharedMemSeries(),
		IntraFabric:  netsim.SharedMemory(),
		Inter:        inter,
		InterFabric:  netsim.GigabitEthernet(),
		Nodes:        nodes,
		RanksPerNode: ranksPerNode,
	}
}

// HybridInProc models the BenchmarkHybridColl configuration: a
// RunLocal-style job where the "wire" is the in-process niodev
// transport (full framing, CRC, and protocol at memory speed), the
// intra level is the smpdev route, and every rank shares one core —
// so aggregate software work, not tree depth, is the binding
// constraint. Calibrated against the np=16 scattered-placement
// measurements in EXPERIMENTS.md: the eager wire path costs ~1.7× a
// shared-memory handoff per byte, and an unsegmented rendezvous
// transfer ~2.8× the eager rate.
func HybridInProc(nodes, ranksPerNode int) TwoLevel {
	return TwoLevel{
		Intra:       SharedMemSeries(),
		IntraFabric: netsim.SharedMemory(),
		Inter: Series{
			Name:        "niodev (in-proc)",
			FixedUS:     6.0,
			EagerCopyNS: 0.7,
			RndvCopyNS:  2.3,
			EagerLimit:  128 << 10,
			RndvSetupUS: 30,
		},
		InterFabric: netsim.Fabric{
			Name:          "In-Process Pipe",
			LatencyUS:     1.5,
			BandwidthMbps: 48_000,
			Efficiency:    1.0,
			ChunkBytes:    32 << 10,
		},
		Nodes:        nodes,
		RanksPerNode: ranksPerNode,
		CPUs:         1,
		OpNS:         1.0, // bounds-checked int64 SUM loop
	}
}

package mpe

import "sync/atomic"

// Counters aggregates a device's protocol activity with atomic fields,
// shared by all devices (superseding the niodev-private statCounters).
// Send-side counters are incremented by the sending device; Unexpected
// and Matched by the device on whose side the matching happened; the
// failure counters by whichever side detected the failure.
type Counters struct {
	// EagerSent counts sends that took the eager protocol.
	EagerSent atomic.Uint64
	// RndvSent counts sends that took the rendezvous protocol.
	RndvSent atomic.Uint64
	// BytesSent totals payload bytes handed to the transport.
	BytesSent atomic.Uint64
	// Unexpected counts arrivals parked with no posted receive.
	Unexpected atomic.Uint64
	// Matched counts arrivals that found a posted receive.
	Matched atomic.Uint64
	// PeersLost counts peer processes declared dead after a
	// connection-level failure (read/write error, EOF, corruption).
	PeersLost atomic.Uint64
	// FramesCorrupt counts wire frames rejected by the integrity check
	// (niodev's per-frame CRC-32C).
	FramesCorrupt atomic.Uint64
	// RequestsFailed counts requests completed with an error (peer
	// death, device close, abort, corruption).
	RequestsFailed atomic.Uint64
	// CollSegsSent counts pipeline segments sent by segmented
	// collectives (incremented by the core layer).
	CollSegsSent atomic.Uint64
	// CollSegsRecv counts pipeline segments received by segmented
	// collectives (incremented by the core layer).
	CollSegsRecv atomic.Uint64
	// RmaPuts, RmaGets and RmaAccs count one-sided Put/Get/Accumulate
	// operations issued by this rank as origin (incremented by
	// internal/rma, once per user call regardless of segmentation).
	RmaPuts atomic.Uint64
	RmaGets atomic.Uint64
	RmaAccs atomic.Uint64
	// RmaBytes totals the payload bytes moved by one-sided operations
	// this rank originated.
	RmaBytes atomic.Uint64
	// SendBatches counts wire writes issued by niodev's send path (each
	// one syscall, covering one coalesced batch), and
	// FramesCoalesced the frames those batches carried — their ratio is
	// the frames-per-syscall batching factor. SendBatchBytes totals the
	// wire bytes (headers + payload) of those batches, so
	// SendBatchBytes/SendBatches is the bytes-per-syscall ratio.
	SendBatches     atomic.Uint64
	FramesCoalesced atomic.Uint64
	SendBatchBytes  atomic.Uint64
	// CommRevokes, CommShrinks and CommAgrees count fault-tolerance
	// operations issued by this rank (incremented by the core layer):
	// communicator revocations initiated locally, successful Shrink
	// calls, and completed agreement rounds.
	CommRevokes atomic.Uint64
	CommShrinks atomic.Uint64
	CommAgrees  atomic.Uint64
	// DecisionsRecorded counts nondeterministic decisions written to
	// the record/replay decision log (wildcard resolutions, completion
	// pops, claim arbitrations); DecisionsEnforced counts recorded
	// decisions a replaying run enforced; ReplayStalls counts
	// completions held past their pop because the recording ordered an
	// earlier one (internal/replay).
	DecisionsRecorded atomic.Uint64
	DecisionsEnforced atomic.Uint64
	ReplayStalls      atomic.Uint64
}

// Snapshot returns a plain-value copy of the counters.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		EagerSent:       c.EagerSent.Load(),
		RndvSent:        c.RndvSent.Load(),
		BytesSent:       c.BytesSent.Load(),
		Unexpected:      c.Unexpected.Load(),
		Matched:         c.Matched.Load(),
		PeersLost:       c.PeersLost.Load(),
		FramesCorrupt:   c.FramesCorrupt.Load(),
		RequestsFailed:  c.RequestsFailed.Load(),
		CollSegsSent:    c.CollSegsSent.Load(),
		CollSegsRecv:    c.CollSegsRecv.Load(),
		RmaPuts:         c.RmaPuts.Load(),
		RmaGets:         c.RmaGets.Load(),
		RmaAccs:         c.RmaAccs.Load(),
		RmaBytes:        c.RmaBytes.Load(),
		SendBatches:     c.SendBatches.Load(),
		FramesCoalesced: c.FramesCoalesced.Load(),
		SendBatchBytes:  c.SendBatchBytes.Load(),
		CommRevokes:     c.CommRevokes.Load(),
		CommShrinks:     c.CommShrinks.Load(),
		CommAgrees:      c.CommAgrees.Load(),

		DecisionsRecorded: c.DecisionsRecorded.Load(),
		DecisionsEnforced: c.DecisionsEnforced.Load(),
		ReplayStalls:      c.ReplayStalls.Load(),
	}
}

// CounterSnapshot is a point-in-time copy of Counters. Field names
// keep compatibility with the original niodev.Stats so existing
// assertions keep working unchanged.
type CounterSnapshot struct {
	EagerSent       uint64 `json:"eagerSent"`
	RndvSent        uint64 `json:"rndvSent"`
	BytesSent       uint64 `json:"bytesSent"`
	Unexpected      uint64 `json:"unexpected"`
	Matched         uint64 `json:"matched"`
	PeersLost       uint64 `json:"peersLost,omitempty"`
	FramesCorrupt   uint64 `json:"framesCorrupt,omitempty"`
	RequestsFailed  uint64 `json:"requestsFailed,omitempty"`
	CollSegsSent    uint64 `json:"collSegsSent,omitempty"`
	CollSegsRecv    uint64 `json:"collSegsRecv,omitempty"`
	RmaPuts         uint64 `json:"rmaPuts,omitempty"`
	RmaGets         uint64 `json:"rmaGets,omitempty"`
	RmaAccs         uint64 `json:"rmaAccs,omitempty"`
	RmaBytes        uint64 `json:"rmaBytes,omitempty"`
	SendBatches     uint64 `json:"sendBatches,omitempty"`
	FramesCoalesced uint64 `json:"framesCoalesced,omitempty"`
	SendBatchBytes  uint64 `json:"sendBatchBytes,omitempty"`
	CommRevokes     uint64 `json:"commRevokes,omitempty"`
	CommShrinks     uint64 `json:"commShrinks,omitempty"`
	CommAgrees      uint64 `json:"commAgrees,omitempty"`

	DecisionsRecorded uint64 `json:"decisionsRecorded,omitempty"`
	DecisionsEnforced uint64 `json:"decisionsEnforced,omitempty"`
	ReplayStalls      uint64 `json:"replayStalls,omitempty"`
}

// Add returns the field-wise sum of two snapshots (used when a device
// aggregates sub-component counters, and by the merge step).
func (s CounterSnapshot) Add(o CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		EagerSent:       s.EagerSent + o.EagerSent,
		RndvSent:        s.RndvSent + o.RndvSent,
		BytesSent:       s.BytesSent + o.BytesSent,
		Unexpected:      s.Unexpected + o.Unexpected,
		Matched:         s.Matched + o.Matched,
		PeersLost:       s.PeersLost + o.PeersLost,
		FramesCorrupt:   s.FramesCorrupt + o.FramesCorrupt,
		RequestsFailed:  s.RequestsFailed + o.RequestsFailed,
		CollSegsSent:    s.CollSegsSent + o.CollSegsSent,
		CollSegsRecv:    s.CollSegsRecv + o.CollSegsRecv,
		RmaPuts:         s.RmaPuts + o.RmaPuts,
		RmaGets:         s.RmaGets + o.RmaGets,
		RmaAccs:         s.RmaAccs + o.RmaAccs,
		RmaBytes:        s.RmaBytes + o.RmaBytes,
		SendBatches:     s.SendBatches + o.SendBatches,
		FramesCoalesced: s.FramesCoalesced + o.FramesCoalesced,
		SendBatchBytes:  s.SendBatchBytes + o.SendBatchBytes,
		CommRevokes:     s.CommRevokes + o.CommRevokes,
		CommShrinks:     s.CommShrinks + o.CommShrinks,
		CommAgrees:      s.CommAgrees + o.CommAgrees,

		DecisionsRecorded: s.DecisionsRecorded + o.DecisionsRecorded,
		DecisionsEnforced: s.DecisionsEnforced + o.DecisionsEnforced,
		ReplayStalls:      s.ReplayStalls + o.ReplayStalls,
	}
}

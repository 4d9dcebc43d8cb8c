package niodev

import (
	"mpj/internal/devcore"
	"mpj/internal/mpe"
)

// Stats is a snapshot of the device's activity counters, usable for
// tuning and for verifying protocol selection (eager vs rendezvous) in
// tests and benchmarks. It is the shared mpe.CounterSnapshot type —
// every device in the repository reports the same shape.
type Stats = mpe.CounterSnapshot

// Stats returns a snapshot of the device's activity counters, which
// live in the shared progress core.
func (d *Device) Stats() Stats { return d.core.Counters.Snapshot() }

// CountersRef exposes the live counter block (mpe.CounterSource) so
// upper layers account into the same counters Stats reports.
func (d *Device) CountersRef() *mpe.Counters {
	if d.core == nil {
		return nil
	}
	return &d.core.Counters
}

// Recorder exposes the device's event recorder so upper layers
// (mpjdev, core) record into the same per-rank stream
// (mpe.Instrumented).
func (d *Device) Recorder() mpe.Recorder { return d.rec }

// peerState is one peer's wire + liveness view for Introspect.
type peerState struct {
	Slot      int    `json:"slot"`
	Connected bool   `json:"connected"`
	Err       string `json:"err,omitempty"`
	// SendQueue is the number of frames queued for this peer and not
	// yet taken by a writer, SendQueueBytes their header and payload
	// bytes (buffering stops at maxBatchBytes).
	SendQueue      int `json:"sendQueue,omitempty"`
	SendQueueBytes int `json:"sendQueueBytes,omitempty"`
}

// introspection is the live-state dump the telemetry endpoint serves:
// the progress core's queue depths plus this device's per-peer
// connection and failure state.
type introspection struct {
	Core  devcore.CoreState `json:"core"`
	Peers []peerState       `json:"peers,omitempty"`
}

// Introspect snapshots the device's live progress-engine and
// connection state for the telemetry /introspect endpoint.
func (d *Device) Introspect() any {
	out := introspection{Core: d.core.Introspect()}
	for slot, q := range d.queues {
		if q == nil {
			continue
		}
		q.mu.Lock()
		ps := peerState{Slot: slot, Connected: q.conn != nil, SendQueue: len(q.frames) - q.head, SendQueueBytes: q.queued}
		q.mu.Unlock()
		if err := d.core.PeerErr(uint64(slot)); err != nil {
			ps.Err = err.Error()
		}
		out.Peers = append(out.Peers, ps)
	}
	return out
}

package niodev

import "mpj/internal/devcore"

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

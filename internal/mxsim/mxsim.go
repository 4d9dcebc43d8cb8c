// Package mxsim is a thread-safe, in-process re-implementation of the
// Myrinet eXpress (MX) user-level communication API that the paper's
// mxdev device drives through JNI. The real MX library requires Myrinet
// hardware; this simulation preserves the properties mxdev depends on:
//
//   - endpoints opened per process and connected by (group, id), the
//     analogue of mx_open_endpoint/mx_connect;
//   - non-blocking sends and receives matched by 64-bit match
//     information with a receive-side mask (mx_isend/mx_irecv);
//   - standard and synchronous send modes, with the communication
//     protocols (eager/rendezvous) implemented *inside* the library,
//     invisible to the caller — mxdev therefore implements none;
//   - gather sends: a segment list is transmitted in one operation, so
//     callers can send a buffer's static and dynamic sections in a
//     single isend (paper §IV-A.3);
//   - an unexpected-message queue and a completion queue with a
//     blocking peek that returns the most recently completed request —
//     the operation MPJ Express borrows for Waitany (§IV-E.1).
//
// Matching, the unexpected queue, the completion queue, and peer-close
// propagation live in the shared progress core (internal/devcore); the
// 64-bit match information maps onto the core's four-key scheme
// through the matchbits adapter, which constrains masks to field
// granularity. An endpoint is a thin shell: a fabric identity plus its
// core.
//
// All operations are safe for concurrent use from multiple goroutines;
// MX's thread safety is one of the paper's reasons for choosing it.
package mxsim

import (
	"errors"
	"fmt"
	"sync"

	"mpj/internal/devcore"
	"mpj/internal/replay"
	"mpj/internal/xdev"
)

// MatchAll is the receive mask that accepts any match information.
const MatchAll = ^uint64(0)

// ErrEndpointClosed is returned for operations on a closed endpoint.
var ErrEndpointClosed = errors.New("mxsim: endpoint closed")

// ErrPeerClosed is returned for operations that can only be completed
// by a remote endpoint that has been closed: sends addressed to it,
// synchronous sends parked unmatched in its unexpected queue, and
// receives pinned (via IRecvFrom) on messages from it.
var ErrPeerClosed = errors.New("mxsim: peer endpoint closed")

// fabric is the process-global "NIC": a namespace of endpoint groups.
var fabric = struct {
	sync.Mutex
	groups map[string]map[uint32]*Endpoint
}{groups: make(map[string]map[uint32]*Endpoint)}

// EndpointAddr addresses a connected remote endpoint, the analogue of
// mx_endpoint_addr_t.
type EndpointAddr struct {
	group string
	id    uint32
}

// ID returns the endpoint id within its group.
func (a EndpointAddr) ID() uint32 { return a.id }

// String formats the address for diagnostics.
func (a EndpointAddr) String() string { return fmt.Sprintf("mx://%s/%d", a.group, a.id) }

// Status reports the outcome of a completed operation.
type Status struct {
	// Source is the sending endpoint's id.
	Source uint32
	// MatchInfo is the send-side 64-bit match information.
	MatchInfo uint64
	// Bytes is the total gathered message length.
	Bytes int
	// Seq is the message's per-sender sequence number, the cross-rank
	// trace correlation key (unique per Source).
	Seq uint64
}

// Request is an in-flight MX operation (mx_request_t): an MX-shaped
// view over a core request. The MX status and payload are set by
// whichever goroutine completes the operation, before the core request
// completes, so observing completion (Wait, Test, Peek) establishes
// the happens-before that makes them readable.
type Request struct {
	ep      *Endpoint
	dr      *devcore.Request
	status  Status
	data    []byte // receive payload, valid once done
	mu      sync.Mutex
	context any
}

func (ep *Endpoint) newRequest(kind devcore.Kind, context any) *Request {
	r := &Request{ep: ep, context: context}
	r.dr = ep.core.NewRequest(kind, nil)
	r.dr.Owner = r
	return r
}

// complete publishes the MX-level outcome and completes the underlying
// core request (which pushes it onto the completion queue).
func (r *Request) complete(st Status, data []byte, err error) {
	r.status = st
	r.data = data
	r.dr.Complete(xdev.Status{Bytes: st.Bytes}, err)
}

// Context returns the opaque context value supplied at post time
// (the void *context of mx_isend).
func (r *Request) Context() any { return r.context }

// SetContext replaces the request's context value.
func (r *Request) SetContext(v any) {
	r.mu.Lock()
	r.context = v
	r.mu.Unlock()
}

// Data returns the received payload. It is valid only after the request
// has completed successfully and only for receive requests.
func (r *Request) Data() []byte { return r.data }

// Wait blocks until the operation completes (mx_wait).
func (r *Request) Wait() (Status, error) {
	_, err := r.dr.Wait()
	return r.status, err
}

// Test reports completion without blocking (mx_test).
func (r *Request) Test() (Status, bool, error) {
	_, ok, err := r.dr.Test()
	if !ok {
		return Status{}, false, err
	}
	return r.status, true, err
}

// Endpoint is an open MX endpoint (mx_endpoint_t): its fabric identity
// plus a progress core holding the posted/unexpected queues and the
// completion queue.
type Endpoint struct {
	group string
	id    uint32
	core  *devcore.Core
}

// MatchStats reports how many arrivals found a posted receive and how
// many were parked in the unexpected queue, as MX firmware counters
// would report it.
func (ep *Endpoint) MatchStats() (matched, unexpected uint64) {
	return ep.core.Counters.Matched.Load(), ep.core.Counters.Unexpected.Load()
}

// Introspect snapshots the endpoint's progress-core state (queue
// depths, seq counter) for live telemetry.
func (ep *Endpoint) Introspect() devcore.CoreState {
	return ep.core.Introspect()
}

// SetReplay installs a record/replay session on the endpoint's
// progress core. Call before traffic (mxdev does so at Init).
func (ep *Endpoint) SetReplay(s *replay.Session) { ep.core.SetReplay(s) }

// ReplayActive reports whether a record/replay session is installed.
func (ep *Endpoint) ReplayActive() bool { return ep.core.ReplayActive() }

// OpenEndpoint opens endpoint id within the named group
// (mx_open_endpoint). Ids must be unique within a group.
func OpenEndpoint(group string, id uint32) (*Endpoint, error) {
	ep := &Endpoint{group: group, id: id, core: devcore.New("mxsim")}
	ep.core.SetClosedErr(func(string) error { return ErrEndpointClosed })
	fabric.Lock()
	defer fabric.Unlock()
	g := fabric.groups[group]
	if g == nil {
		g = make(map[uint32]*Endpoint)
		fabric.groups[group] = g
	}
	if _, dup := g[id]; dup {
		return nil, fmt.Errorf("mxsim: endpoint %d already open in group %q", id, group)
	}
	g[id] = ep
	return ep, nil
}

// Addr returns this endpoint's own address.
func (ep *Endpoint) Addr() EndpointAddr { return EndpointAddr{ep.group, ep.id} }

// Connect resolves a remote endpoint address (mx_connect). It fails if
// the remote endpoint has not been opened yet.
func (ep *Endpoint) Connect(id uint32) (EndpointAddr, error) {
	fabric.Lock()
	defer fabric.Unlock()
	g := fabric.groups[ep.group]
	if g == nil || g[id] == nil {
		return EndpointAddr{}, fmt.Errorf("mxsim: connect: no endpoint %d in group %q", id, ep.group)
	}
	return EndpointAddr{ep.group, id}, nil
}

// Close shuts the endpoint down, failing outstanding requests
// (mx_close_endpoint). Synchronous senders still parked unmatched in
// the unexpected queue are failed with ErrPeerClosed — their message
// can never be matched now — and every surviving endpoint in the group
// is told, so receives pinned on this endpoint fail instead of waiting
// forever. The fabric entry goes first: an IRecvFrom racing with the
// notifications sees the endpoint gone and fails fast.
func (ep *Endpoint) Close() error {
	fabric.Lock()
	if g := fabric.groups[ep.group]; g != nil && g[ep.id] == ep {
		delete(g, ep.id)
		if len(g) == 0 {
			delete(fabric.groups, ep.group)
		}
	}
	var peers []*Endpoint
	for _, p := range fabric.groups[ep.group] {
		peers = append(peers, p)
	}
	fabric.Unlock()

	if !ep.core.Shutdown(ErrEndpointClosed, fmt.Errorf("mxsim: ssend unmatched at close: %w", ErrPeerClosed)) {
		return nil
	}
	for _, p := range peers {
		p.peerClosed(ep.id)
	}
	return nil
}

// peerClosed fails this endpoint's posted receives pinned on the
// closed endpoint src. Unexpected messages already received from src
// stay deliverable (the data is here), and unpinned receives stay
// posted — another sender may satisfy them. The failure is graceful
// and non-sticky: endpoint ids are reopenable, so src must not be
// remembered as dead.
func (ep *Endpoint) peerClosed(src uint32) {
	ep.core.FailPeer(uint64(src), devcore.PeerFail{
		Err:      fmt.Errorf("mxsim: recv from endpoint %d: %w", src, ErrPeerClosed),
		Graceful: true,
	})
}

// RevokeContext poisons matching context ctx on this endpoint and on
// every endpoint currently open in its group: posted receives and
// unmatched messages carrying the context fail with an error wrapping
// xdev.ErrRevoked, and future operations on it fail fast. This is a
// fabric extension beyond the real MX API — the simulated NIC plays
// the role of a revocation broadcast — and it is idempotent per
// endpoint, so concurrent revokers converge.
func (ep *Endpoint) RevokeContext(ctx int32) {
	fabric.Lock()
	peers := make([]*Endpoint, 0, len(fabric.groups[ep.group]))
	for _, p := range fabric.groups[ep.group] {
		peers = append(peers, p)
	}
	fabric.Unlock()
	err := fmt.Errorf("mxsim: matching context %d revoked: %w", ctx, xdev.ErrRevoked)
	ep.core.RevokeContext(ctx, err) // self, even when already closed out of the fabric
	for _, p := range peers {
		if p != ep {
			p.core.RevokeContext(ctx, err)
		}
	}
}

// CtxErr returns the revocation error recorded for ctx on this
// endpoint, or nil while the context is live.
func (ep *Endpoint) CtxErr(ctx int32) error { return ep.core.CtxErr(ctx) }

// PeerOpen reports whether endpoint id is currently open in this
// endpoint's group. Endpoint death records are deliberately non-sticky
// (ids are reopenable), so fabric membership is the only liveness
// signal the library offers; one-sided synchronization layers poll it.
func (ep *Endpoint) PeerOpen(id uint32) bool {
	fabric.Lock()
	defer fabric.Unlock()
	g := fabric.groups[ep.group]
	return g != nil && g[id] != nil
}

func (ep *Endpoint) resolve(dst EndpointAddr) (*Endpoint, error) {
	fabric.Lock()
	defer fabric.Unlock()
	g := fabric.groups[dst.group]
	if g == nil || g[dst.id] == nil {
		return nil, fmt.Errorf("mxsim: send: endpoint %v not open: %w", dst, ErrPeerClosed)
	}
	return g[dst.id], nil
}

// gather concatenates a segment list into the message buffer — the
// simulated DMA. This is the single data copy of the simulated fabric.
func gather(segments [][]byte) []byte {
	total := 0
	for _, s := range segments {
		total += len(s)
	}
	out := make([]byte, 0, total)
	for _, s := range segments {
		out = append(out, s...)
	}
	return out
}

// ISend starts a standard-mode send of the gathered segments
// (mx_isend). The returned request completes as soon as the data has
// been captured — the library handles protocol internally.
func (ep *Endpoint) ISend(segments [][]byte, dst EndpointAddr, matchInfo uint64, context any) (*Request, error) {
	return ep.send(segments, dst, matchInfo, context, false)
}

// ISsend starts a synchronous-mode send (mx_issend): the request
// completes only when the receiver has matched the message.
func (ep *Endpoint) ISsend(segments [][]byte, dst EndpointAddr, matchInfo uint64, context any) (*Request, error) {
	return ep.send(segments, dst, matchInfo, context, true)
}

func (ep *Endpoint) send(segments [][]byte, dst EndpointAddr, matchInfo uint64, context any, sync bool) (*Request, error) {
	if ep.core.Closed() {
		return nil, ErrEndpointClosed
	}
	if err := ep.core.CtxErr(decodeConcrete(matchInfo).Ctx); err != nil {
		return nil, err
	}
	rep, err := ep.resolve(dst)
	if err != nil {
		return nil, err
	}
	sreq := ep.newRequest(devcore.SendReq, context)
	data := gather(segments)
	env := decodeConcrete(matchInfo)
	seq := ep.core.NextSeqSend(uint64(dst.id), env.Ctx, env.Tag)
	if ep.core.ReplayActive() {
		sreq.dr.SetReplayID(int64(dst.id), env.Tag, env.Ctx, seq)
	}
	st := Status{Source: ep.id, MatchInfo: matchInfo, Bytes: len(data), Seq: seq}
	arr := &devcore.Arrival{
		Src:       uint64(ep.id),
		Seq:       seq,
		WireLen:   len(data),
		Sync:      sync,
		Data:      data,
		MatchInfo: matchInfo,
	}
	if sync {
		arr.SyncReq = sreq.dr
	}

	// The destination core's matching runs on this (the sender's)
	// thread, as MX firmware would on message arrival.
	rdr, matched, err := rep.core.MatchOrPark(decodeConcrete(matchInfo), arr)
	if err != nil {
		if errors.Is(err, xdev.ErrRevoked) {
			// The destination saw the revocation before this sender's own
			// core did: the send fails with it rather than pretending the
			// message was captured.
			sreq.complete(Status{}, nil, err)
			return sreq, nil
		}
		// The destination closed between resolve and delivery.
		if sync {
			sreq.complete(Status{}, nil, fmt.Errorf("mxsim: deliver: %w", ErrPeerClosed))
			return sreq, nil
		}
		sreq.complete(st, nil, nil)
		return sreq, nil
	}
	if matched {
		rw := rdr.Owner.(*Request)
		rw.complete(st, data, nil)
		if sync {
			sreq.complete(st, nil, nil)
		}
	}
	if !sync {
		sreq.complete(st, nil, nil)
	}
	return sreq, nil
}

// IRecv posts a non-blocking receive for messages whose match
// information equals matchInfo under matchMask (mx_irecv). The mask
// must be field-granular (see the matchbits adapter).
func (ep *Endpoint) IRecv(matchInfo, matchMask uint64, context any) (*Request, error) {
	return ep.irecv(matchInfo, matchMask, -1, context)
}

// IRecvFrom posts a receive pinned on sender src: if src's endpoint
// closes before a match, the receive fails with ErrPeerClosed rather
// than waiting forever. The pin is advisory metadata for failure
// propagation; matching itself is still matchInfo/matchMask.
func (ep *Endpoint) IRecvFrom(matchInfo, matchMask uint64, src uint32, context any) (*Request, error) {
	return ep.irecv(matchInfo, matchMask, int64(src), context)
}

func (ep *Endpoint) irecv(matchInfo, matchMask uint64, src int64, context any) (*Request, error) {
	if ep.core.Closed() {
		return nil, ErrEndpointClosed
	}
	p, err := decodePattern(matchInfo, matchMask)
	if err != nil {
		return nil, err
	}
	req := ep.newRequest(devcore.RecvReq, context)
	req.dr.Pin = src
	var pinAlive func() error
	if src >= 0 {
		// A pinned receive must not park when its sender is already
		// gone: Close removes the endpoint from the fabric before
		// notifying peers, so checking fabric membership under the core
		// lock closes the race with the peerClosed drain either way.
		pinAlive = func() error {
			fabric.Lock()
			open := fabric.groups[ep.group][uint32(src)] != nil
			fabric.Unlock()
			if !open {
				return fmt.Errorf("mxsim: recv from endpoint %d: %w", src, ErrPeerClosed)
			}
			return nil
		}
	}
	arr, err := ep.core.PostRecv(p, req.dr, pinAlive)
	if err != nil {
		return nil, err
	}
	if arr != nil {
		st := Status{Source: uint32(arr.Src), MatchInfo: arr.MatchInfo, Bytes: len(arr.Data), Seq: arr.Seq}
		req.complete(st, arr.Data, nil)
		if arr.SyncReq != nil {
			arr.SyncReq.Owner.(*Request).complete(st, nil, nil)
		}
	}
	return req, nil
}

// IProbe checks for an unexpected message matching matchInfo/matchMask
// without consuming it (mx_iprobe).
func (ep *Endpoint) IProbe(matchInfo, matchMask uint64) (Status, bool, error) {
	if ep.core.Closed() {
		return Status{}, false, ErrEndpointClosed
	}
	p, err := decodePattern(matchInfo, matchMask)
	if err != nil {
		return Status{}, false, err
	}
	e, ok, err := ep.core.IProbe(p, "iprobe")
	if !ok || err != nil {
		return Status{}, false, err
	}
	return Status{Source: uint32(e.Src), MatchInfo: e.MatchInfo, Bytes: e.WireLen, Seq: e.Seq}, true, nil
}

// Probe blocks until a matching unexpected message is available
// (mx_probe).
func (ep *Endpoint) Probe(matchInfo, matchMask uint64) (Status, error) {
	if ep.core.Closed() {
		return Status{}, ErrEndpointClosed
	}
	p, err := decodePattern(matchInfo, matchMask)
	if err != nil {
		return Status{}, err
	}
	e, err := ep.core.Probe(p, "probe")
	if err != nil {
		return Status{}, err
	}
	return Status{Source: uint32(e.Src), MatchInfo: e.MatchInfo, Bytes: e.WireLen, Seq: e.Seq}, nil
}

// Peek blocks until some request on this endpoint completes and
// returns it (mx_peek, the primitive behind Waitany).
func (ep *Endpoint) Peek() (*Request, error) {
	dr, err := ep.core.Peek()
	if err != nil {
		return nil, ErrEndpointClosed
	}
	return dr.Owner.(*Request), nil
}

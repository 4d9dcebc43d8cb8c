// Package niodev is the pure-Go communication device of this MPJ
// Express reproduction, the counterpart of the paper's Java NIO device
// (§IV-A). It speaks two protocols over stream connections:
//
//   - an eager protocol for messages at or below the eager limit
//     (128 KiB by default, the paper's TCP switch point): data is
//     written immediately on the assumption that the receiver can
//     buffer it (Figs. 3–5);
//   - a rendezvous protocol for larger messages: a READY_TO_SEND
//     control message, matched at the receiver, answered by a
//     READY_TO_RECV, after which a writer goroutine transmits the data
//     — never the input handler, which must stay unblocked to avoid the
//     mutual-large-send deadlock the paper describes (Figs. 6–8).
//
// Faithful structural choices, and one departure:
//
//   - one full-duplex connection per process pair, where the paper
//     opens a write and a read channel: the split is Java NIO's, and on
//     one socket a reply carries the ACK of the message it answers
//     (DESIGN.md §3);
//   - a per-destination lock serializing writers to each connection,
//     held as a writer role: concurrent senders queue their frames
//     behind the holder, whose write carries them, and an input handler
//     only ever queues (send.go);
//   - a single receive-communication-sets lock guarding message
//     matching, with the paper's four-key matching scheme (§IV-E.2,
//     package match);
//   - one input-handler goroutine per connection plays the role
//     of the select()-driven progress engine: Go's blocking reads on a
//     per-peer goroutine are the idiomatic equivalent of NIO channel
//     multiplexing.
//
// The device is thread safe at MPI_THREAD_MULTIPLE: any goroutine may
// call any operation concurrently.
package niodev

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/devcore"
	"mpj/internal/mpe"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// DeviceName is the registry name of this device.
const DeviceName = "niodev"

// DefaultEagerLimit is the eager→rendezvous protocol switch point in
// wire bytes (the paper reports 128 Kbytes for TCP).
const DefaultEagerLimit = 128 << 10

// connectTimeout bounds how long Init waits for peers to come up.
const connectTimeout = 30 * time.Second

func init() {
	xdev.Register(DeviceName, func() xdev.Device { return New() })
}

// Device implements xdev.Device over stream transports. The
// point-to-point surface is devcore's front end; the device binds it
// to the wire (protocol.go).
type Device struct {
	devcore.Front

	cfg        xdev.Config
	self       xdev.ProcessID
	pids       []xdev.ProcessID
	tr         xdev.Transport
	listener   net.Listener
	eagerLimit int

	// One frame queue per destination slot (nil for self), holding the
	// pair's connection and the writer role that is the paper's
	// per-destination channel lock (send.go).
	queues []*peerQueue

	// core is the shared progress engine: the receive-communication
	// sets (posted + arrived under the paper's single lock), the
	// completion queue, and peer-death/abort propagation all live
	// there. The device contributes only the TCP transport binding.
	core *devcore.Core

	// Protocol pending sets, registered with the core so its failure
	// drains cover them. Keys are (peer slot, protocol sequence).
	pendingRndv  *devcore.PendingSet // send awaiting READY_TO_RECV
	pendingSync  *devcore.PendingSet // eager-sync send awaiting ACK
	rndvIncoming *devcore.PendingSet // receive awaiting rendezvous data

	// Accept side, guarded by amu: every accepted connection, which
	// shutdown closes even mid-handshake (a silent dialer cannot hold
	// Finish), and the slots whose hello was admitted.
	amu      sync.Mutex
	accepted []net.Conn
	admitted []bool

	linked    chan struct{} // a value per linked peer; Init awaits Size-1
	handlerWG sync.WaitGroup
	closed    atomic.Bool

	rec mpe.Recorder
}

// New returns an uninitialized niodev device.
func New() *Device {
	d := &Device{
		core: devcore.New(DeviceName),
		rec:  mpe.Nop{},
	}
	d.pendingRndv = d.core.NewPendingSet("rndv-send")
	d.pendingSync = d.core.NewPendingSet("sync-send")
	d.rndvIncoming = d.core.NewPendingSet("rndv-recv")
	d.Bind(DeviceName, wire{d})
	return d
}

// Init joins the job described by cfg: it listens on its own address,
// dials the peers it should (dials), and waits until it has one
// connection to every peer, however it was made.
func (d *Device) Init(cfg xdev.Config) ([]xdev.ProcessID, error) {
	if d.Core() != nil {
		return nil, xdev.Errf(DeviceName, "init", "device already initialized")
	}
	if cfg.Size < 1 {
		return nil, xdev.Errf(DeviceName, "init", "job size %d < 1", cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, xdev.Errf(DeviceName, "init", "rank %d out of range [0,%d)", cfg.Rank, cfg.Size)
	}
	d.cfg = cfg
	if cfg.Recorder != nil {
		d.rec = cfg.Recorder
		d.core.SetRecorder(cfg.Recorder)
	}
	if cfg.Replay != nil {
		d.core.SetReplay(cfg.Replay)
	}
	d.eagerLimit = cfg.EagerLimit
	if d.eagerLimit <= 0 {
		d.eagerLimit = DefaultEagerLimit
	}
	d.tr = cfg.Dialer
	if d.tr == nil {
		d.tr = transport.TCP{}
	}
	d.pids = make([]xdev.ProcessID, cfg.Size)
	for i := range d.pids {
		d.pids[i] = xdev.ProcessID{UUID: uint64(i)}
	}
	d.self = d.pids[cfg.Rank]
	d.queues = make([]*peerQueue, cfg.Size)
	for slot := range d.queues {
		if slot != cfg.Rank {
			d.queues[slot] = &peerQueue{}
		}
	}

	if cfg.Size > 1 {
		if len(cfg.Addrs) != cfg.Size {
			return nil, xdev.Errf(DeviceName, "init", "have %d addresses for %d processes", len(cfg.Addrs), cfg.Size)
		}
		l, err := d.tr.Listen(cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, &xdev.Error{Dev: DeviceName, Op: "listen", Err: err}
		}
		d.listener = l
		d.admitted = make([]bool, cfg.Size)
		d.linked = make(chan struct{}, cfg.Size-1)
		d.handlerWG.Add(1)
		go d.acceptLoop()

		deadline := time.Now().Add(connectTimeout)
		for slot := 0; slot < cfg.Size; slot++ {
			if !dials(cfg.Rank, slot) {
				continue
			}
			conn, err := d.dialPeer(slot, deadline)
			if err == nil {
				err = d.attach(slot, conn)
			}
			if err != nil {
				d.Finish()
				return nil, &xdev.Error{Dev: DeviceName, Op: "connect to slot " + fmt.Sprint(slot), Err: err}
			}
		}
		if err := awaitN(d.linked, cfg.Size-1, time.Until(deadline)); err != nil {
			d.Finish()
			return nil, &xdev.Error{Dev: DeviceName, Op: "await peer connections", Err: err}
		}
	}
	d.Attach(d.core, cfg.Size)
	return append([]xdev.ProcessID(nil), d.pids...), nil
}

// dials reports whether rank dials peer: the higher rank of a pair
// does, which meets fewer refusals (DESIGN.md §3).
func dials(rank, peer int) bool { return rank > peer }

// dialBackoff is rank's retry schedule for slot: a peer that listens a
// moment late costs about that moment.
func dialBackoff(rank, size, slot int) *transport.Backoff {
	return transport.NewBackoff(100*time.Microsecond, 250*time.Millisecond, int64(rank)*int64(size)+int64(slot)+1)
}

// dialPeer dials slot, retrying until its listener is up, and exchanges
// hellos: ours names both ranks, and the reply must name them back.
func (d *Device) dialPeer(slot int, deadline time.Time) (net.Conn, error) {
	bo := dialBackoff(d.cfg.Rank, d.cfg.Size, slot)
	var lastErr error
	for time.Now().Before(deadline) {
		conn, err := d.tr.Dial(d.cfg.Addrs[slot])
		if err != nil {
			lastErr = err
			time.Sleep(bo.Next())
			continue
		}
		// A peer that never answers fails Init; a transport without
		// deadlines (the in-process pipe) leaves that to shutdown.
		_ = conn.SetDeadline(deadline)
		err = writeHello(conn, uint32(d.cfg.Rank), uint32(slot))
		var from, to uint32
		if err == nil {
			from, to, err = readHello(conn)
		}
		if err == nil && (int(from) != slot || int(to) != d.cfg.Rank) {
			err = fmt.Errorf("%w: reply from slot %d to slot %d", errBadHello, from, to)
		}
		if err != nil {
			conn.Close()
			return nil, err
		}
		_ = conn.SetDeadline(time.Time{})
		return conn, nil
	}
	return nil, fmt.Errorf("gave up after %v: %w", connectTimeout, lastErr)
}

func (d *Device) acceptLoop() {
	defer d.handlerWG.Done()
	for {
		conn, err := d.listener.Accept()
		if err != nil {
			return // listener closed by shutdown
		}
		d.amu.Lock()
		d.accepted = append(d.accepted, conn)
		d.amu.Unlock()
		if d.closed.Load() { // shutdown may have closed the list before conn joined
			conn.Close()
			return
		}
		d.handlerWG.Add(1)
		go func() {
			defer d.handlerWG.Done()
			if err := d.admit(conn); err != nil {
				conn.Close()
			}
		}()
	}
}

// admit is the acceptor's half of the handshake: it reads the dialer's
// hello, admits one per peer that dials this rank, answers with our
// hello (before attach lets writers at conn) and attaches conn.
func (d *Device) admit(conn net.Conn) error {
	from, to, err := readHello(conn)
	if err != nil {
		return err
	}
	d.amu.Lock()
	switch {
	case int(to) != d.cfg.Rank || from >= uint32(d.cfg.Size) || !dials(int(from), d.cfg.Rank):
		err = fmt.Errorf("%w: slot %d may not dial slot %d at slot %d", errBadHello, from, to, d.cfg.Rank)
	case d.admitted[from]:
		err = fmt.Errorf("%w: slot %d is already connected", errBadHello, from)
	default:
		d.admitted[from] = true
	}
	d.amu.Unlock()
	if err != nil {
		return &xdev.Error{Dev: DeviceName, Op: "accept", Err: err}
	}
	if err := writeHello(conn, to, from); err != nil {
		return err
	}
	return d.attach(int(from), conn)
}

// attach makes conn slot's connection, written by the queue's writer role
// and read by a new input handler, unless the queue is poisoned (the
// device is closing or the peer dead).
func (d *Device) attach(slot int, conn net.Conn) error {
	q := d.queues[slot]
	q.mu.Lock()
	err := q.err
	if err == nil {
		q.conn = conn
		// Added under q.mu with q unpoisoned: before shutdown's Wait.
		d.handlerWG.Add(1)
		go func() {
			defer d.handlerWG.Done()
			d.inputHandler(conn, uint32(slot))
		}()
	}
	q.mu.Unlock()
	if err != nil {
		conn.Close()
		return err
	}
	d.linked <- struct{}{} // never blocks: one per slot, Size-1 buffered
	return nil
}

// awaitN receives n values from ch, failing once timeout has passed. It
// starts no goroutine, so a wait that times out leaves nothing behind.
func awaitN(ch <-chan struct{}, n int, timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for i := 0; i < n; i++ {
		select {
		case <-ch:
		case <-t.C:
			return fmt.Errorf("%d of %d after %v", i, n, timeout)
		}
	}
	return nil
}

// ID returns this process's ProcessID.
func (d *Device) ID() xdev.ProcessID { return d.self }

// SendOverhead reports the fixed per-message header bytes on the wire.
func (d *Device) SendOverhead() int { return headerLen }

// RecvOverhead reports the fixed per-message header bytes on the wire.
func (d *Device) RecvOverhead() int { return headerLen }

// EagerLimit reports the active protocol switch point.
func (d *Device) EagerLimit() int { return d.eagerLimit }

// Finish closes connections and the listener, fails every pending
// request with a device-closed error, and wakes all blocked callers —
// a Recv or Wait outstanding at Finish returns an error rather than
// hanging. Live peers are sent a goodbye frame first, so they treat
// this rank's departure as graceful rather than a failure.
func (d *Device) Finish() error {
	d.sayGoodbye()
	d.shutdown(ErrDeviceClosed, true)
	return nil
}

// sayGoodbye queues a best-effort bye frame to every live peer and
// waits, bounded, for them to be written. Each bye sits behind every
// frame queued to its peer before Finish (flush-on-finalize). A wedged
// connection cannot turn Finish into a hang: shutdown closes the
// connections right afterwards and that peer sees EOF (a loss) instead.
func (d *Device) sayGoodbye() {
	if d.closed.Load() {
		return
	}
	d.broadcast(header{typ: msgBye, src: uint32(d.cfg.Rank)}, -1, goodbyeFlush)
}

var _ xdev.Device = (*Device)(nil)

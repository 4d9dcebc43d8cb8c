// Package ibisdev is a deliberately MPJ/Ibis-flavoured baseline device
// used by the comparison experiments (§II, §V-A, §VI of the paper):
//
//   - it starts a worker "thread" (goroutine) for every non-blocking
//     send and receive operation, as MPJ/Ibis did, and enforces a
//     native-thread ceiling so that posting many simultaneous
//     operations fails the way the paper observed ("cannot create
//     native threads" at ~650 outstanding receives);
//   - its receive workers poll for matching messages, consuming CPU
//     that competes with application compute — the behaviour MPJ
//     Express's ANY_SOURCE design avoids and the §V-A matrix experiment
//     quantifies;
//   - like TCPIbis/NIOIbis it performs no staging pack/unpack of its
//     own beyond the buffer wire form it is handed.
//
// It is NOT a reimplementation of the real Ibis runtime; it reproduces
// just the structural properties the paper contrasts against.
//
// The device rides on smpdev mailboxes, so its matching, completion
// and failure semantics come transitively from the shared progress
// core (internal/devcore); only the per-operation worker threading
// above it is Ibis-flavoured. Because receive workers poll, the order
// in which two same-matching receives reach the engine is not their
// posting order (devtest's RelaxedPostedOrder).
package ibisdev

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/smpdev"
	"mpj/internal/xdev"
)

// DeviceName is the registry name of this device.
const DeviceName = "ibisdev"

// DefaultMaxThreads models the JVM native-thread ceiling the paper hit
// when MPJ/Ibis attempted its 650th simultaneous receive.
const DefaultMaxThreads = 640

// DefaultPollInterval is how often a receive worker wakes to probe for
// its message. Each wakeup costs scheduler time and a mailbox lock
// acquisition — the per-operation-thread overhead that competes with
// application compute (§V-A). A zero interval selects busy polling
// (yield between probes), the "straightforward" strategy §IV-E.1 warns
// causes CPU starvation.
const DefaultPollInterval = 100 * time.Microsecond

func init() {
	xdev.Register(DeviceName, func() xdev.Device { return New() })
}

// Device implements xdev.Device in the MPJ/Ibis per-operation-thread
// style, delegating actual transport to an inner shared-memory device.
type Device struct {
	inner        *smpdev.Device
	open         atomic.Bool // joined a job and not finished
	maxThreads   int64
	threads      atomic.Int64
	pollInterval atomic.Int64 // nanoseconds; <0 selects busy polling
}

// New returns an uninitialized ibisdev with the default thread ceiling
// and polling interval.
func New() *Device {
	d := &Device{inner: smpdev.New(), maxThreads: DefaultMaxThreads}
	d.pollInterval.Store(int64(DefaultPollInterval))
	return d
}

// SetPollInterval changes how receive workers poll: a positive
// interval sleeps between probes; zero busy-polls, yielding the
// processor between probes (maximum CPU starvation).
func (d *Device) SetPollInterval(interval time.Duration) {
	if interval <= 0 {
		d.pollInterval.Store(-1)
		return
	}
	d.pollInterval.Store(int64(interval))
}

// SetMaxThreads overrides the simulated native-thread ceiling. It must
// be called before operations are posted.
func (d *Device) SetMaxThreads(n int) { d.maxThreads = int64(n) }

// ActiveThreads reports the current number of per-operation workers.
func (d *Device) ActiveThreads() int { return int(d.threads.Load()) }

// Init joins the job (see smpdev.Device.Init).
func (d *Device) Init(cfg xdev.Config) ([]xdev.ProcessID, error) {
	if cfg.Group == "" {
		cfg.Group = "ibis-default"
	}
	pids, err := d.inner.Init(cfg)
	d.open.Store(err == nil)
	return pids, err
}

// ID returns this process's ProcessID.
func (d *Device) ID() xdev.ProcessID { return d.inner.ID() }

// Stats returns the counters of the inner transport device.
func (d *Device) Stats() mpe.CounterSnapshot { return d.inner.Stats() }

// CountersRef exposes the inner transport device's live counter block
// (mpe.CounterSource).
func (d *Device) CountersRef() *mpe.Counters { return d.inner.CountersRef() }

// Recorder exposes the inner device's event recorder
// (mpe.Instrumented).
func (d *Device) Recorder() mpe.Recorder { return d.inner.Recorder() }

// Introspect exposes the inner transport device's live progress-engine
// state for the telemetry /introspect endpoint.
func (d *Device) Introspect() any { return d.inner.Introspect() }

// PeerErr reports the recorded death error of peer p, delegated to the
// inner transport device (xdev.PeerChecker). ibisdev deliberately does
// NOT delegate xdev.MemoryDomain: keeping the shared-memory window
// path off exercises the active-message RMA delivery in-process.
func (d *Device) PeerErr(p xdev.ProcessID) error { return d.inner.PeerErr(p) }

// Finish shuts the device down.
func (d *Device) Finish() error {
	d.open.Store(false)
	return d.inner.Finish()
}

// notOpen refuses an operation that would start a worker on a device
// that never joined a job or has finished, as the inner device refuses
// the calls it serves itself.
func (d *Device) notOpen(op string) error {
	if d.open.Load() {
		return nil
	}
	return xdev.Errf(DeviceName, op, "device not ready: %w", xdev.ErrDeviceClosed)
}

// Abort tears the whole job down with the given code by delegating to
// the inner transport device (xdev.Aborter). Receive workers blocked
// in their probe loop observe the abort as an IProbe error and exit.
func (d *Device) Abort(code int) error { return d.inner.Abort(code) }

// Revoke poisons a matching context job-wide by delegating to the
// inner transport device (xdev.Revoker). Receive workers polling the
// revoked context observe the revocation as an IProbe error and fail
// their operation with it.
func (d *Device) Revoke(context int) error { return d.inner.Revoke(context) }

// SendOverhead reports the per-message device overhead in bytes.
func (d *Device) SendOverhead() int { return d.inner.SendOverhead() }

// RecvOverhead reports the per-message device overhead in bytes.
func (d *Device) RecvOverhead() int { return d.inner.RecvOverhead() }

// spawn accounts for one per-operation worker thread, failing like a
// JVM that cannot create another native thread.
func (d *Device) spawn(op string) error {
	if err := d.notOpen(op); err != nil {
		return err
	}
	if d.threads.Add(1) > d.maxThreads {
		d.threads.Add(-1)
		return xdev.Errf(DeviceName, "spawn", "unable to create native thread: %d already running", d.maxThreads)
	}
	return nil
}

func (d *Device) release() { d.threads.Add(-1) }

// request wraps the inner request, holding the worker's result.
type request struct {
	done   chan struct{}
	status xdev.Status
	err    error

	mu         sync.Mutex
	attachment any
}

// Wait blocks until the worker thread finishes the operation.
func (r *request) Wait() (xdev.Status, error) {
	<-r.done
	return r.status, r.err
}

// Test reports completion without blocking.
func (r *request) Test() (xdev.Status, bool, error) {
	select {
	case <-r.done:
		return r.status, true, r.err
	default:
		return xdev.Status{}, false, nil
	}
}

// SetAttachment stores opaque upper-layer state on the request; nil
// clears it.
func (r *request) SetAttachment(v any) {
	r.mu.Lock()
	r.attachment = v
	r.mu.Unlock()
}

// Attachment returns the value stored by SetAttachment.
func (r *request) Attachment() any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attachment
}

// ISend starts a send on a fresh worker thread (the Ibis pattern).
func (d *Device) ISend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	return d.opThread("isend", func() (xdev.Status, error) {
		err := d.inner.Send(buf, dst, tag, context)
		return xdev.Status{Source: d.ID(), Tag: tag, Bytes: buf.WireLen()}, err
	})
}

// Send is the blocking standard-mode send.
func (d *Device) Send(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	return d.inner.Send(buf, dst, tag, context)
}

// ISsend starts a synchronous-mode send on a fresh worker thread.
func (d *Device) ISsend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) (xdev.Request, error) {
	return d.opThread("issend", func() (xdev.Status, error) {
		err := d.inner.Ssend(buf, dst, tag, context)
		return xdev.Status{Source: d.ID(), Tag: tag, Bytes: buf.WireLen()}, err
	})
}

// Ssend is the blocking synchronous-mode send.
func (d *Device) Ssend(buf *mpjbuf.Buffer, dst xdev.ProcessID, tag, context int) error {
	return d.inner.Ssend(buf, dst, tag, context)
}

// opThread runs op on an accounted worker. Like a Java thread, the
// worker is pinned to a dedicated OS thread (the thread exits with the
// goroutine), so its scheduling cost is the kernel's, not the Go
// runtime's — the interference §V-A measures.
func (d *Device) opThread(name string, op func() (xdev.Status, error)) (xdev.Request, error) {
	if err := d.spawn(name); err != nil {
		return nil, err
	}
	r := &request{done: make(chan struct{})}
	go func() {
		runtime.LockOSThread()
		defer d.release()
		r.status, r.err = op()
		close(r.done)
	}()
	return r, nil
}

// IRecv starts a polling receive worker: it repeatedly probes for a
// matching message, sleeping briefly between probes — scheduler churn
// and lock traffic that an application's compute threads pay for.
func (d *Device) IRecv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Request, error) {
	if err := d.spawn("irecv"); err != nil {
		return nil, err
	}
	r := &request{done: make(chan struct{})}
	go func() {
		runtime.LockOSThread()
		defer d.release()
		for {
			if _, ok, err := d.inner.IProbe(src, tag, context); ok || err != nil {
				if err != nil {
					r.err = err
					close(r.done)
					return
				}
				break
			}
			if pi := d.pollInterval.Load(); pi > 0 {
				time.Sleep(time.Duration(pi))
			} else {
				runtime.Gosched()
			}
		}
		r.status, r.err = d.inner.Recv(buf, src, tag, context)
		close(r.done)
	}()
	return r, nil
}

// Recv blocks until a matching message has been received.
func (d *Device) Recv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	return d.inner.Recv(buf, src, tag, context)
}

// Probe blocks until a matching message is available.
func (d *Device) Probe(src xdev.ProcessID, tag, context int) (xdev.Status, error) {
	return d.inner.Probe(src, tag, context)
}

// IProbe checks for a matching message without receiving it.
func (d *Device) IProbe(src xdev.ProcessID, tag, context int) (xdev.Status, bool, error) {
	return d.inner.IProbe(src, tag, context)
}

// Peek is unsupported: the Ibis devices have no completion queue, which
// is why Waitany over them must poll (paper §IV-E.1's "straightforward"
// strategy). Callers needing Waitany over this device poll Test.
func (d *Device) Peek() (xdev.Request, error) {
	if err := d.notOpen("peek"); err != nil {
		return nil, err
	}
	return nil, xdev.Errf(DeviceName, "peek", "not supported: device has no completion queue")
}

var _ xdev.Device = (*Device)(nil)

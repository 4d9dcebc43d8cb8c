package mpjdev

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"mpj/internal/mpjbuf"
	"mpj/internal/niodev"
	"mpj/internal/smpdev"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// windowDevice wraps a device so a test can land a completion inside
// WaitAny's registration window: the first attachment stored on a
// windowReq with an onAttach hook first runs the hook, which completes
// the request and waits until the peeker has popped it and read its
// (still empty) attachment. Peek hands back the wrappers, so every
// attachment read goes through them.
type windowDevice struct {
	xdev.Device
	wrapped sync.Map // inner xdev.Request -> *windowReq
}

type windowReq struct {
	xdev.Request
	onAttach func() // run before the first attachment is stored
	read     chan struct{}
	readOnce sync.Once
}

func (d *windowDevice) IRecv(buf *mpjbuf.Buffer, src xdev.ProcessID, tag, context int) (xdev.Request, error) {
	xr, err := d.Device.IRecv(buf, src, tag, context)
	if err != nil {
		return nil, err
	}
	r := &windowReq{Request: xr, read: make(chan struct{})}
	d.wrapped.Store(xr, r)
	return r, nil
}

func (d *windowDevice) Peek() (xdev.Request, error) {
	xr, err := d.Device.Peek()
	if r, ok := d.wrapped.Load(xr); ok {
		return r.(*windowReq), err
	}
	return xr, err
}

func (r *windowReq) SetAttachment(v any) {
	if v != nil && r.onAttach != nil {
		f := r.onAttach
		r.onAttach = nil
		f()
	}
	r.Request.SetAttachment(v)
}

func (r *windowReq) Attachment() any {
	v := r.Request.Attachment()
	r.readOnce.Do(func() { close(r.read) })
	return v
}

// queued reports how many WaitAny calls are queued on dev, and whether
// the table has an entry for it.
func queued(dev xdev.Device) (int, bool) {
	waitQueues.Lock()
	defer waitQueues.Unlock()
	q, ok := waitQueues.m[dev]
	return len(q), ok
}

// waitQueued spins until n WaitAny calls are queued on dev.
func waitQueued(dev xdev.Device, n int) {
	for {
		if k, _ := queued(dev); k == n {
			return
		}
		runtime.Gosched()
	}
}

// TestWaitAnyRegistrationWindow lands completions between WaitAny's
// first scan and its attachment, while another WaitAny holds peek duty
// and pops each of them before the attachment exists (scenario 3 for
// that peeker). Only the scan after attaching can still see them; a
// WaitAny without it never returns. Every other round the completion
// instead races the waiter freely and is usually delivered by the
// peeker (scenario 2). Every completion must come back, with its
// payload, and none may hang.
func TestWaitAnyRegistrationWindow(t *testing.T) {
	job := groupCounter.Add(1)
	devices := []struct {
		name   string
		newDev func() xdev.Device
		cfg    func(rank int) xdev.Config
	}{
		{"smpdev", func() xdev.Device { return &windowDevice{Device: smpdev.New()} },
			func(rank int) xdev.Config {
				return xdev.Config{Rank: rank, Size: 1, Group: fmt.Sprintf("mpjdev-window-%d", job)}
			}},
		{"niodev-InProc", func() xdev.Device { return &windowDevice{Device: niodev.New()} },
			func() func(int) xdev.Config {
				tr := transport.NewInProc(0)
				addrs := []string{fmt.Sprintf("mpjdev-window-%d", job)}
				return func(rank int) xdev.Config {
					return xdev.Config{Rank: rank, Size: 1, Addrs: addrs, Dialer: tr}
				}
			}()},
	}
	const (
		waiters = 4
		rounds  = 16
		keepTag = 1000
	)
	for _, d := range devices {
		t.Run(d.name, func(t *testing.T) {
			runJobOn(t, 1, d.newDev, d.cfg, func(c *Comm, rank int) {
				keep, err := c.Irecv(mpjbuf.New(0), 0, keepTag)
				if err != nil {
					t.Error(err)
					return
				}
				keeper := make(chan error, 1)
				go func() {
					idx, _, err := WaitAny([]*Request{&keep})
					if err == nil && idx != 0 {
						err = fmt.Errorf("keeper idx %d", idx)
					}
					keeper <- err
				}()
				waitQueued(c.dev, 1) // the keeper holds peek duty

				var wg sync.WaitGroup
				for g := 0; g < waiters; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < rounds; i++ {
							v := int64(g*rounds + i)
							buf := mpjbuf.New(0)
							req, err := c.Irecv(buf, 0, g)
							if err != nil {
								t.Errorf("irecv: %v", err)
								return
							}
							send := func() {
								if err := c.Send(packInt(t, v), 0, g); err != nil {
									t.Errorf("send: %v", err)
								}
							}
							if i%2 == 0 {
								wr := req.inner.(*windowReq)
								wr.onAttach = func() {
									send()
									select {
									case <-wr.read:
									case <-time.After(10 * time.Second):
										t.Errorf("waiter %d round %d: the peeker never popped the completion", g, i)
									}
								}
							} else {
								go send()
							}
							got := make(chan error, 1)
							go func() {
								idx, st, err := WaitAny([]*Request{nil, &req})
								if err == nil && (idx != 1 || st.Tag != g) {
									err = fmt.Errorf("idx=%d st=%+v", idx, st)
								}
								got <- err
							}()
							select {
							case err := <-got:
								if err != nil {
									t.Errorf("waiter %d round %d: %v", g, i, err)
									return
								}
							case <-time.After(10 * time.Second):
								t.Errorf("waiter %d round %d: completion never delivered", g, i)
								return
							}
							if x := unpackInt(t, buf); x != v {
								t.Errorf("waiter %d round %d: payload %d, want %d", g, i, x, v)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				if err := c.Send(packInt(t, 0), 0, keepTag); err != nil {
					t.Error(err)
					return
				}
				if err := <-keeper; err != nil {
					t.Errorf("keeper: %v", err)
				}
			})
		})
	}
}

// TestWaitAnyAllocs pins what WaitAny allocates on smpdev: nothing when
// one of 64 requests has already completed, and, when it must block,
// the same number of allocations over 64 requests as over 4.
func TestWaitAnyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	// A collection empties the buffer pools; keep it out of the counts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runJob(t, 1, func(c *Comm, rank int) {
		const n = 64
		vals, reqs := make([]Request, n), make([]*Request, n)
		for i := range reqs {
			var err error
			if vals[i], err = c.Irecv(mpjbuf.New(0), 0, i); err != nil {
				t.Error(err)
				return
			}
			reqs[i] = &vals[i]
		}
		const done = 37
		if err := c.Send(packInt(t, 1), 0, done); err != nil {
			t.Error(err)
			return
		}
		if a := testing.AllocsPerRun(100, func() {
			if idx, _, err := WaitAny(reqs); err != nil || idx != done {
				t.Errorf("idx=%d err=%v", idx, err)
			}
		}); a != 0 {
			t.Errorf("WaitAny over %d requests, one complete: %v allocs, want 0", n, a)
		}
		reqs[done] = nil

		// A blocking call over the first k pending requests plus one the
		// helper completes once the call has queued on the device.
		const tag = n
		kick, kicked := make(chan struct{}), make(chan struct{})
		defer close(kick)
		go func() {
			for range kick {
				waitQueued(c.dev, 1)
				if err := c.Send(packInt(t, 2), 0, tag); err != nil {
					t.Error(err)
				}
				kicked <- struct{}{}
			}
		}()
		blocking := func(k int) float64 {
			arr := append(make([]*Request, 0, k+1), reqs[:k]...)
			var slot Request
			arr = append(arr, &slot)
			return testing.AllocsPerRun(50, func() {
				var err error
				if slot, err = c.Irecv(mpjbuf.New(0), 0, tag); err != nil {
					t.Error(err)
					return
				}
				kick <- struct{}{}
				if idx, _, err := WaitAny(arr); err != nil || idx != k {
					t.Errorf("idx=%d err=%v", idx, err)
				}
				<-kicked
			})
		}
		a4, a64 := blocking(4), blocking(n-1)
		t.Logf("blocking WaitAny allocs per call (incl. Irecv and the helper's Send): %v over 4, %v over %d", a4, a64, n-1)
		if a4 != a64 {
			t.Errorf("blocking WaitAny allocates %v over 4 requests but %v over %d", a4, a64, n-1)
		}
		for i, r := range reqs {
			if r != nil {
				if err := c.Send(packInt(t, 0), 0, i); err != nil {
					t.Error(err)
				}
			}
		}
	})
}

// TestWaitAnyTableDropsFinishedDevices: twenty one-rank smpdev jobs,
// each with one WaitAny that blocks until a send completes its request,
// leave no entry in the queue table once their devices have finished;
// and a WaitAny over a receive the Finish failed returns that failure
// at once.
func TestWaitAnyTableDropsFinishedDevices(t *testing.T) {
	const jobs = 20
	devs := make([]xdev.Device, 0, jobs)
	unmatched := make([]Request, 0, jobs)
	for j := 0; j < jobs; j++ {
		runJob(t, 1, func(c *Comm, rank int) {
			devs = append(devs, c.dev)
			r, err := c.Irecv(mpjbuf.New(0), 0, 1)
			if err != nil {
				t.Error(err)
				return
			}
			u, err := c.Irecv(mpjbuf.New(0), 0, 2) // never sent
			if err != nil {
				t.Error(err)
				return
			}
			unmatched = append(unmatched, u)
			go func() {
				waitQueued(c.dev, 1)
				if err := c.Send(packInt(t, 1), 0, 1); err != nil {
					t.Error(err)
				}
			}()
			if _, _, err := WaitAny([]*Request{&r}); err != nil {
				t.Error(err)
			}
		})
	}
	for j, dev := range devs {
		if _, ok := queued(dev); ok {
			t.Errorf("job %d: the queue table still holds its finished device", j)
		}
	}
	for j := range unmatched {
		done := make(chan error, 1)
		go func() {
			_, _, err := WaitAny([]*Request{&unmatched[j]})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, xdev.ErrDeviceClosed) {
				t.Errorf("job %d: WaitAny after Finish = %v, want an error wrapping xdev.ErrDeviceClosed", j, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("job %d: WaitAny after Finish blocked", j)
		}
		if _, ok := queued(devs[j]); ok {
			t.Errorf("job %d: WaitAny after Finish left an entry", j)
		}
	}
}

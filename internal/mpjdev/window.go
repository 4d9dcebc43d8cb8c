package mpjdev

import "fmt"

// Window bounds the number of outstanding requests in a pipelined
// stream of operations. Segmented collectives post one request per
// segment; the window keeps at most limit of them in flight, waiting
// on the oldest (FIFO) when a new one would exceed the bound — the
// "bounded-window" discipline that gives overlap without unbounded
// buffer memory.
//
// A Window is not safe for concurrent use: each pipelined stream owns
// exactly one.
type Window struct {
	limit int
	reqs  []Request
	head  int // index of the oldest live request in reqs
}

// NewWindow returns a window admitting at most limit in-flight
// requests. limit < 1 is treated as 1.
func NewWindow(limit int) *Window {
	if limit < 1 {
		limit = 1
	}
	return &Window{limit: limit}
}

// Len reports the number of in-flight requests.
func (w *Window) Len() int { return len(w.reqs) - w.head }

// Full reports whether adding another request requires waiting on the
// oldest first.
func (w *Window) Full() bool { return w.Len() >= w.limit }

// Add appends a request to the window. The caller must drain with
// WaitOldest when Full; Add refuses to exceed the bound so a missing
// drain surfaces as an error instead of unbounded growth.
func (w *Window) Add(r Request) error {
	if w.Full() {
		return fmt.Errorf("mpjdev: window full (%d in flight)", w.Len())
	}
	w.reqs = append(w.reqs, r)
	return nil
}

// WaitOldest blocks until the oldest in-flight request completes and
// removes it from the window.
func (w *Window) WaitOldest() (Status, error) {
	if w.Len() == 0 {
		return Status{}, fmt.Errorf("mpjdev: WaitOldest on empty window")
	}
	r := w.reqs[w.head]
	w.reqs[w.head] = Request{}
	w.head++
	if w.head == len(w.reqs) {
		w.reqs = w.reqs[:0]
		w.head = 0
	}
	return r.Wait()
}

// Drain waits for every in-flight request in FIFO order. All requests
// are waited even on error; the first error is returned.
func (w *Window) Drain() error {
	var first error
	for w.Len() > 0 {
		if _, err := w.WaitOldest(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Package cqueue provides the completion-queue discipline shared by
// the communication devices: completed requests are queued until
// collected by Wait, Test or a blocking Peek. The queue is what makes
// an MX-style peek() — "return the most recently completed request" —
// possible, and with it mpjdev's poll-free Waitany (paper §IV-E.1).
//
// The queue is intrusive: entries expose a membership slot (CQSlot)
// the queue flips under its own lock, so a push is one append into a
// reused slice ring — no per-entry node allocation, no side map — and
// a collect is one bool write. A nonblocking request passes through
// here twice (push at completion, collect at Wait or Test), so the
// per-entry constant matters. A blocking call's request never does
// (devcore's NewBlockingRequest): nothing but its own Wait can name it.
package cqueue

import (
	"errors"
	"sync"
)

// ErrClosed is returned by Peek once the queue is closed and drained.
var ErrClosed = errors.New("cqueue: closed")

// Entry is the intrusive contract: CQSlot returns a pointer to a bool
// the queue owns while the entry is queued (true = pushed and not yet
// collected). The slot is only touched under the queue's lock.
type Entry interface {
	comparable
	CQSlot() *bool
}

// Queue is a completion queue of requests of type T. The zero value is
// not ready; use New.
type Queue[T Entry] struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []T // ring: live window is items[head:]
	head    int
	live    int // queued entries not yet collected
	waiters int
	closed  bool
}

// New returns an empty completion queue.
func New[T Entry]() *Queue[T] {
	c := &Queue[T]{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Push enqueues a newly completed request. Pushes after Close are
// dropped (the waiters have already been failed).
func (c *Queue[T]) Push(v T) {
	c.mu.Lock()
	if !c.closed {
		if slot := v.CQSlot(); !*slot {
			*slot = true
			c.items = append(c.items, v)
			c.live++
		}
	}
	if c.waiters > 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// Collect removes v from the queue if it is still there. Wait and Test
// call this so a request handed to the caller is no longer visible to
// Peek. The slice entry stays behind as a tombstone that Peek skips —
// but tombstones must be reclaimed here too, not just in Peek: a
// Wait-only workload (the message-rate path) never calls Peek, and
// without compaction the ring grows one stale pointer per completion,
// forever.
func (c *Queue[T]) Collect(v T) {
	c.mu.Lock()
	if slot := v.CQSlot(); *slot {
		*slot = false
		c.live--
		if c.live == 0 {
			clear(c.items)
			c.items = c.items[:0]
			c.head = 0
		} else if len(c.items)-c.head > 2*c.live+64 {
			c.compact()
		}
	}
	c.mu.Unlock()
}

// compact rewrites the live window in place, dropping tombstones.
// Called under mu when tombstones outnumber live entries; amortized
// O(1) per collect. Entries before head were already zeroed by Peek,
// so everything in [head:len) is a valid (possibly tombstoned) entry.
func (c *Queue[T]) compact() {
	var zero T
	w := 0
	for i := c.head; i < len(c.items); i++ {
		if v := c.items[i]; *v.CQSlot() {
			c.items[w] = v
			w++
		}
	}
	for i := w; i < len(c.items); i++ {
		c.items[i] = zero
	}
	c.items = c.items[:w]
	c.head = 0
}

// Peek blocks until a completed request is available, removes it from
// the queue and returns it. It returns ErrClosed once the queue has
// been closed and emptied.
func (c *Queue[T]) Peek() (T, error) {
	var zero T
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for c.live == 0 && !c.closed {
			c.waiters++
			c.cond.Wait()
			c.waiters--
		}
		if c.live == 0 {
			return zero, ErrClosed
		}
		for c.head < len(c.items) {
			v := c.items[c.head]
			c.items[c.head] = zero
			c.head++
			if c.head == len(c.items) {
				c.items = c.items[:0]
				c.head = 0
			}
			if slot := v.CQSlot(); *slot {
				*slot = false
				c.live--
				return v, nil
			}
			// Tombstone: collected while queued; skip.
		}
	}
}

// TryPeek is the non-blocking Peek: it removes and returns a completed
// request if one is queued. ok is false when the queue is empty (or
// holds only tombstones); closed then reports whether the queue has
// been closed, so a poller can distinguish "nothing yet" from "nothing
// ever again". The replay-enforced pop path polls through here — it
// must regain control between pops to compare completion identities
// against the recorded order, which the blocking Peek cannot offer.
func (c *Queue[T]) TryPeek() (v T, ok bool, closed bool) {
	var zero T
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.head < len(c.items) {
		e := c.items[c.head]
		c.items[c.head] = zero
		c.head++
		if c.head == len(c.items) {
			c.items = c.items[:0]
			c.head = 0
		}
		if slot := e.CQSlot(); *slot {
			*slot = false
			c.live--
			return e, true, c.closed
		}
	}
	return zero, false, c.closed
}

// Len reports the number of uncollected completions.
func (c *Queue[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// Close fails current and future Peek callers once the queue drains.
func (c *Queue[T]) Close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Package match implements MPJ Express message matching (§IV-E.2 of the
// paper). A message is identified by (context, tag, source); receives
// may wildcard tag and/or source. Each posted receive generates four
// possible keys — (ctx,tag,src), (ctx,ANY_TAG,src), (ctx,tag,ANY_SOURCE)
// and (ctx,ANY_TAG,ANY_SOURCE) — and incoming messages are matched
// against those keys in O(1) per key, rather than by scanning.
//
// Two symmetric structures cover the two directions of the race between
// a receive being posted and its message arriving:
//
//   - PatternSet holds posted receive patterns (which may contain
//     wildcards) and is probed with the concrete envelope of an
//     arriving message;
//   - ItemSet holds arrived-but-unmatched message envelopes (always
//     concrete) and is probed with a receive pattern.
//
// Both preserve MPI's ordering rule: among multiple candidates the one
// posted (or arrived) first wins, even across wildcard and non-wildcard
// buckets. Neither type is goroutine-safe; callers hold the relevant
// communication-set lock, exactly as in the paper's pseudocode.
//
// Each set recycles its entries through a free list kept under that
// same lock: an entry is freed when the last bucket queue holding it
// lets go, so the steady post-then-match cycle allocates nothing.
package match

import "sort"

// Wildcard values within a Pattern.
const (
	// AnyTag matches any message tag.
	AnyTag int32 = -1
	// AnySource matches any source process.
	AnySource uint64 = ^uint64(0)
)

// Pattern is a receive-side match specification; Tag and Src may hold
// the wildcard values.
type Pattern struct {
	Ctx int32
	Tag int32
	Src uint64
}

// Concrete is a message envelope; no wildcards.
type Concrete struct {
	Ctx int32
	Tag int32
	Src uint64
}

// Matches reports whether the pattern accepts the envelope.
func (p Pattern) Matches(c Concrete) bool {
	return p.Ctx == c.Ctx &&
		(p.Tag == AnyTag || p.Tag == c.Tag) &&
		(p.Src == AnySource || p.Src == c.Src)
}

// keys returns the four probe keys for an envelope, most to least
// specific. The index of each key is its wildcard class (see classOf).
func (c Concrete) keys() [4]Pattern {
	return [4]Pattern{
		{c.Ctx, c.Tag, c.Src},
		{c.Ctx, AnyTag, c.Src},
		{c.Ctx, c.Tag, AnySource},
		{c.Ctx, AnyTag, AnySource},
	}
}

// classOf returns a pattern's wildcard class: bit 0 set for AnyTag,
// bit 1 for AnySource. Class 0 is a fully concrete pattern. The class
// of keys()[i] is i.
func classOf(p Pattern) int {
	cls := 0
	if p.Tag == AnyTag {
		cls |= 1
	}
	if p.Src == AnySource {
		cls |= 2
	}
	return cls
}

type entry[T any] struct {
	seq   uint64
	value T
	next  *entry[T] // free-list link while recycled
	taken bool
	refs  uint8 // bucket queues still holding the entry
}

// entries is a set's entry free list.
type entries[T any] struct{ free *entry[T] }

// get returns a live entry held by refs bucket queues.
func (l *entries[T]) get(seq uint64, v T, refs uint8) *entry[T] {
	e := l.free
	if e == nil {
		e = new(entry[T])
	} else {
		l.free, e.next = e.next, nil
	}
	e.seq, e.value, e.refs = seq, v, refs
	return e
}

// drop records that a bucket queue let go of the taken entry e; the
// last one frees it.
func (l *entries[T]) drop(e *entry[T]) {
	e.refs--
	if e.refs == 0 {
		*e = entry[T]{next: l.free}
		l.free = e
	}
}

// fifo is a slice-backed queue with lazy removal of taken entries.
// items[:off] have been consumed and are nil. A queue that empties
// keeps its backing array, so the steady post-then-match cycle pushes
// into storage it already has.
type fifo[T any] struct {
	items []*entry[T]
	off   int
}

func (q *fifo[T]) push(e *entry[T]) { q.items = append(q.items, e) }

// head returns the oldest non-taken entry, dropping taken ones as it
// goes.
func (q *fifo[T]) head(l *entries[T]) *entry[T] {
	for q.off < len(q.items) && q.items[q.off].taken {
		l.drop(q.items[q.off])
		q.items[q.off] = nil
		q.off++
	}
	switch {
	case q.off == len(q.items):
		q.items, q.off = q.items[:0], 0
		return nil
	case q.off > 32 && q.off > len(q.items)/2:
		// Mostly consumed but never empty: drop the prefix so the
		// array does not grow without bound.
		q.items, q.off = q.items[q.off:], 0
	}
	return q.items[q.off]
}

// take marks the head entry (just returned by head) taken, removes it
// and returns its value.
func (q *fifo[T]) take(l *entries[T]) T {
	e := q.items[q.off]
	v := e.value
	e.taken = true
	q.items[q.off] = nil
	q.off++
	if q.off == len(q.items) {
		q.items, q.off = q.items[:0], 0
	}
	l.drop(e)
	return v
}

// PatternSet holds posted receive patterns, each indexed under its own
// (possibly wildcarded) key, in posting order. classes counts the live
// patterns per wildcard class so a probe skips the map lookups for
// classes nothing is posted under — in the common no-wildcard workload
// an arriving message costs one map access, not four.
type PatternSet[T any] struct {
	seq     uint64
	buckets map[Pattern]*fifo[T]
	live    int
	classes [4]int
	free    entries[T]
}

// NewPatternSet returns an empty pattern set.
func NewPatternSet[T any]() *PatternSet[T] {
	return &PatternSet[T]{buckets: make(map[Pattern]*fifo[T])}
}

// Add posts a pattern with its associated value.
func (s *PatternSet[T]) Add(p Pattern, v T) {
	q := s.buckets[p]
	if q == nil {
		q = &fifo[T]{}
		s.buckets[p] = q
	}
	s.seq++
	q.push(s.free.get(s.seq, v, 1))
	s.live++
	s.classes[classOf(p)]++
}

// Match finds, removes and returns the earliest-posted pattern that
// accepts the envelope. ok is false when nothing matches.
func (s *PatternSet[T]) Match(c Concrete) (v T, ok bool) {
	var best *entry[T]
	var bestQ *fifo[T]
	bestCls := 0
	for cls, k := range c.keys() {
		if s.classes[cls] == 0 {
			continue
		}
		q := s.buckets[k]
		if q == nil {
			continue
		}
		if e := q.head(&s.free); e != nil && (best == nil || e.seq < best.seq) {
			best, bestQ, bestCls = e, q, cls
		}
	}
	if best == nil {
		return v, false
	}
	s.live--
	s.classes[bestCls]--
	return bestQ.take(&s.free), true
}

// Len reports the number of live (unmatched) patterns.
func (s *PatternSet[T]) Len() int { return s.live }

// Recount recomputes the live total and per-class counts directly from
// the buckets. The class counters are a probe-skipping cache; the
// replay hold-release path recounts before probing so enforcement
// never trusts a stale cache while it rewrites patterns the cache was
// maintained under (ISSUE 10 stale live-count fix).
func (s *PatternSet[T]) Recount() {
	s.live = 0
	s.classes = [4]int{}
	for k, q := range s.buckets {
		n := 0
		for _, e := range q.items {
			if e != nil && !e.taken {
				n++
			}
		}
		if n == 0 {
			continue
		}
		s.live += n
		s.classes[classOf(k)] += n
	}
}

// TakeFunc removes and returns every live pattern accepted by pred, in
// posting order. The failure paths use it to drain receives that can no
// longer complete (dead source, device shutdown).
func (s *PatternSet[T]) TakeFunc(pred func(Pattern, T) bool) []T {
	var taken []*entry[T]
	for k, q := range s.buckets {
		for _, e := range q.items {
			if e == nil || e.taken {
				continue
			}
			if pred(k, e.value) {
				e.taken = true
				s.live--
				s.classes[classOf(k)]--
				taken = append(taken, e)
			}
		}
	}
	sortEntries(taken)
	out := make([]T, len(taken))
	for i, e := range taken {
		out[i] = e.value
	}
	return out
}

// ItemSet holds arrived message envelopes. An item is always indexed
// under its exact (class-0) key; the three wildcard-class indexes are
// built lazily, the first time a probe of that class occurs. A
// workload that never posts a wildcard receive — the message-rate hot
// path — pays one map access and one push per unexpected message
// instead of four of each, while ANY_TAG/ANY_SOURCE apps pay a
// one-time O(n log n) index build and then the same O(1) probes as
// before.
type ItemSet[T any] struct {
	seq     uint64
	buckets map[Pattern]*fifo[T]
	live    int
	active  [4]bool
	nactive uint8 // active classes: the bucket queues a new item joins
	free    entries[T]
}

// NewItemSet returns an empty item set.
func NewItemSet[T any]() *ItemSet[T] {
	s := &ItemSet[T]{buckets: make(map[Pattern]*fifo[T])}
	s.active[0], s.nactive = true, 1
	return s
}

// Add records an arrived envelope with its associated value.
//
// An item taken through one class's bucket stays queued, taken, in its
// other buckets until something visits them, and a receiver that only
// ever matches ANY_SOURCE never visits the exact bucket. So each bucket
// the item joins is first cleared of taken entries at its front, which
// frees them for the next arrival to reuse.
func (s *ItemSet[T]) Add(c Concrete, v T) {
	s.seq++
	e := s.free.get(s.seq, v, s.nactive)
	for cls, k := range c.keys() {
		if !s.active[cls] {
			continue
		}
		q := s.buckets[k]
		if q == nil {
			q = &fifo[T]{}
			s.buckets[k] = q
		} else {
			q.head(&s.free)
		}
		q.push(e)
	}
	s.live++
}

// activate builds the bucket index for a wildcard class from the live
// entries. Every live entry sits in its exact bucket (class 0 is
// always active), so enumerating class-0 buckets finds each exactly
// once; sorting by seq restores arrival order within the new buckets.
func (s *ItemSet[T]) activate(cls int) {
	s.active[cls] = true
	s.nactive++
	type pending struct {
		e *entry[T]
		k Pattern
	}
	var ps []pending
	for k, q := range s.buckets {
		if classOf(k) != 0 {
			continue
		}
		for _, e := range q.items {
			if e == nil || e.taken {
				continue
			}
			ck := Concrete{Ctx: k.Ctx, Tag: k.Tag, Src: k.Src}.keys()[cls]
			ps = append(ps, pending{e, ck})
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].e.seq < ps[j].e.seq })
	for _, p := range ps {
		q := s.buckets[p.k]
		if q == nil {
			q = &fifo[T]{}
			s.buckets[p.k] = q
		}
		q.push(p.e)
		p.e.refs++
	}
}

// Match finds, removes and returns the earliest-arrived item accepted
// by the pattern.
func (s *ItemSet[T]) Match(p Pattern) (v T, ok bool) {
	if cls := classOf(p); !s.active[cls] {
		s.activate(cls)
	}
	q := s.buckets[p]
	if q == nil || q.head(&s.free) == nil {
		return v, false
	}
	s.live--
	return q.take(&s.free), true
}

// Peek returns the earliest-arrived item accepted by the pattern
// without removing it (the probe operation).
func (s *ItemSet[T]) Peek(p Pattern) (v T, ok bool) {
	if cls := classOf(p); !s.active[cls] {
		s.activate(cls)
	}
	q := s.buckets[p]
	if q == nil {
		return v, false
	}
	e := q.head(&s.free)
	if e == nil {
		return v, false
	}
	return e.value, true
}

// Len reports the number of live (unmatched) items.
func (s *ItemSet[T]) Len() int { return s.live }

// Recount recomputes the live count from the class-0 buckets (every
// live item is indexed there exactly once). Companion to
// PatternSet.Recount for the replay hold-release path.
func (s *ItemSet[T]) Recount() {
	s.live = 0
	for k, q := range s.buckets {
		if classOf(k) != 0 {
			continue
		}
		for _, e := range q.items {
			if e != nil && !e.taken {
				s.live++
			}
		}
	}
}

// TakeFunc removes and returns every live item accepted by pred, in
// arrival order. An item may be indexed under several keys sharing one
// entry, so the taken flag both removes and deduplicates.
func (s *ItemSet[T]) TakeFunc(pred func(T) bool) []T {
	var taken []*entry[T]
	seen := map[*entry[T]]bool{}
	for _, q := range s.buckets {
		for _, e := range q.items {
			if e == nil || e.taken || seen[e] {
				continue
			}
			seen[e] = true
			if pred(e.value) {
				e.taken = true
				s.live--
				taken = append(taken, e)
			}
		}
	}
	sortEntries(taken)
	out := make([]T, len(taken))
	for i, e := range taken {
		out[i] = e.value
	}
	return out
}

// sortEntries orders drained entries by their posting/arrival sequence.
func sortEntries[T any](es []*entry[T]) {
	sort.Slice(es, func(i, j int) bool { return es[i].seq < es[j].seq })
}

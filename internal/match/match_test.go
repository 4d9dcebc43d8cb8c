package match

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPatternMatches(t *testing.T) {
	cases := []struct {
		p    Pattern
		c    Concrete
		want bool
	}{
		{Pattern{1, 5, 2}, Concrete{1, 5, 2}, true},
		{Pattern{1, 5, 2}, Concrete{1, 5, 3}, false},
		{Pattern{1, 5, 2}, Concrete{1, 6, 2}, false},
		{Pattern{1, 5, 2}, Concrete{2, 5, 2}, false},
		{Pattern{1, AnyTag, 2}, Concrete{1, 99, 2}, true},
		{Pattern{1, 5, AnySource}, Concrete{1, 5, 77}, true},
		{Pattern{1, AnyTag, AnySource}, Concrete{1, 0, 0}, true},
		{Pattern{1, AnyTag, AnySource}, Concrete{2, 0, 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Matches(c.c); got != c.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", c.p, c.c, got, c.want)
		}
	}
}

func TestPatternSetExactMatch(t *testing.T) {
	s := NewPatternSet[string]()
	s.Add(Pattern{1, 5, 2}, "a")
	if v, ok := s.Match(Concrete{1, 5, 2}); !ok || v != "a" {
		t.Fatalf("Match = (%v, %v)", v, ok)
	}
	if _, ok := s.Match(Concrete{1, 5, 2}); ok {
		t.Fatal("matched twice")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// A post-then-match cycle in steady state allocates only the entry: the
// bucket keeps its backing array when it empties.
func TestPatternSetSteadyStateAllocs(t *testing.T) {
	s := NewPatternSet[int]()
	p, c := Pattern{1, 5, 2}, Concrete{1, 5, 2}
	cycle := func() {
		s.Add(p, 7)
		if _, ok := s.Match(c); !ok {
			t.Fatal("no match")
		}
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n > 1 {
		t.Errorf("Add+Match allocates %.1f times, want <= 1", n)
	}
}

// A bucket that never empties keeps FIFO order and does not keep every
// entry it ever held.
func TestPatternSetNeverEmptyBucket(t *testing.T) {
	s := NewPatternSet[int]()
	p, c := Pattern{1, 5, 2}, Concrete{1, 5, 2}
	next, want := 0, 0
	for i := 0; i < 10000; i++ {
		for s.Len() < 2+i%100 {
			s.Add(p, next)
			next++
		}
		if v, ok := s.Match(c); !ok || v != want {
			t.Fatalf("match %d = (%d, %v), want %d", i, v, ok, want)
		}
		want++
	}
	if n := cap(s.buckets[p].items); n > 1024 {
		t.Errorf("bucket holds %d slots for at most 101 live entries", n)
	}
}

func TestPatternSetWildcardPriorityByPostingOrder(t *testing.T) {
	s := NewPatternSet[string]()
	s.Add(Pattern{1, AnyTag, AnySource}, "wild")
	s.Add(Pattern{1, 5, 2}, "exact")
	// The wildcard was posted first, so it must match first.
	if v, _ := s.Match(Concrete{1, 5, 2}); v != "wild" {
		t.Fatalf("first match = %q, want wild", v)
	}
	if v, _ := s.Match(Concrete{1, 5, 2}); v != "exact" {
		t.Fatalf("second match = %q, want exact", v)
	}
}

func TestPatternSetExactBeforeLaterWildcard(t *testing.T) {
	s := NewPatternSet[string]()
	s.Add(Pattern{1, 5, 2}, "exact")
	s.Add(Pattern{1, AnyTag, AnySource}, "wild")
	if v, _ := s.Match(Concrete{1, 5, 2}); v != "exact" {
		t.Fatalf("first match = %q, want exact", v)
	}
}

func TestPatternSetNoMatchAcrossContexts(t *testing.T) {
	s := NewPatternSet[string]()
	s.Add(Pattern{7, AnyTag, AnySource}, "ctx7")
	if _, ok := s.Match(Concrete{8, 1, 1}); ok {
		t.Fatal("matched across contexts")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestItemSetFIFOWithinKey(t *testing.T) {
	s := NewItemSet[int]()
	s.Add(Concrete{1, 5, 2}, 100)
	s.Add(Concrete{1, 5, 2}, 200)
	if v, _ := s.Match(Pattern{1, 5, 2}); v != 100 {
		t.Fatalf("first = %d, want 100", v)
	}
	if v, _ := s.Match(Pattern{1, 5, 2}); v != 200 {
		t.Fatalf("second = %d, want 200", v)
	}
}

func TestItemSetWildcardProbes(t *testing.T) {
	s := NewItemSet[string]()
	s.Add(Concrete{1, 5, 2}, "m1")
	s.Add(Concrete{1, 6, 3}, "m2")

	if v, ok := s.Match(Pattern{1, AnyTag, AnySource}); !ok || v != "m1" {
		t.Fatalf("wildcard probe = (%v,%v), want m1 (earliest arrival)", v, ok)
	}
	// m1 was consumed; it must not be returned by any other key.
	if v, ok := s.Match(Pattern{1, 5, 2}); ok {
		t.Fatalf("consumed item matched again: %v", v)
	}
	if v, ok := s.Match(Pattern{1, AnyTag, 3}); !ok || v != "m2" {
		t.Fatalf("src-specific wildcard probe = (%v,%v), want m2", v, ok)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestItemSetPeekDoesNotConsume(t *testing.T) {
	s := NewItemSet[string]()
	s.Add(Concrete{1, 5, 2}, "m")
	if v, ok := s.Peek(Pattern{1, AnyTag, 2}); !ok || v != "m" {
		t.Fatalf("Peek = (%v,%v)", v, ok)
	}
	if v, ok := s.Match(Pattern{1, 5, AnySource}); !ok || v != "m" {
		t.Fatalf("Match after Peek = (%v,%v)", v, ok)
	}
	if _, ok := s.Peek(Pattern{1, AnyTag, AnySource}); ok {
		t.Fatal("Peek found consumed item")
	}
}

// TestCrossSetsEquivalence checks PatternSet and ItemSet agree with a
// brute-force ordered-scan model under random workloads.
func TestCrossSetsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type post struct {
		p     Pattern
		id    int
		taken bool
	}
	for trial := 0; trial < 200; trial++ {
		s := NewPatternSet[int]()
		var model []*post
		id := 0
		for op := 0; op < 60; op++ {
			if rng.Intn(2) == 0 {
				p := Pattern{
					Ctx: int32(rng.Intn(2)),
					Tag: int32(rng.Intn(3)),
					Src: uint64(rng.Intn(2)),
				}
				if rng.Intn(3) == 0 {
					p.Tag = AnyTag
				}
				if rng.Intn(3) == 0 {
					p.Src = AnySource
				}
				s.Add(p, id)
				model = append(model, &post{p: p, id: id})
				id++
			} else {
				c := Concrete{
					Ctx: int32(rng.Intn(2)),
					Tag: int32(rng.Intn(3)),
					Src: uint64(rng.Intn(2)),
				}
				got, gotOK := s.Match(c)
				var want int
				wantOK := false
				for _, m := range model {
					if !m.taken && m.p.Matches(c) {
						want, wantOK = m.id, true
						m.taken = true
						break
					}
				}
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("trial %d: Match(%v) = (%d,%v), model says (%d,%v)",
						trial, c, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

func TestItemSetEquivalenceWithScanModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type item struct {
		c     Concrete
		id    int
		taken bool
	}
	for trial := 0; trial < 200; trial++ {
		s := NewItemSet[int]()
		var model []*item
		id := 0
		for op := 0; op < 60; op++ {
			if rng.Intn(2) == 0 {
				c := Concrete{
					Ctx: int32(rng.Intn(2)),
					Tag: int32(rng.Intn(3)),
					Src: uint64(rng.Intn(2)),
				}
				s.Add(c, id)
				model = append(model, &item{c: c, id: id})
				id++
			} else {
				p := Pattern{
					Ctx: int32(rng.Intn(2)),
					Tag: int32(rng.Intn(3)),
					Src: uint64(rng.Intn(2)),
				}
				if rng.Intn(3) == 0 {
					p.Tag = AnyTag
				}
				if rng.Intn(3) == 0 {
					p.Src = AnySource
				}
				got, gotOK := s.Match(p)
				var want int
				wantOK := false
				for _, m := range model {
					if !m.taken && p.Matches(m.c) {
						want, wantOK = m.id, true
						m.taken = true
						break
					}
				}
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("trial %d: Match(%v) = (%d,%v), model says (%d,%v)",
						trial, p, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

func TestQuickPatternSymmetry(t *testing.T) {
	// If a PatternSet match succeeds for envelope c against pattern p,
	// then p.Matches(c) must hold.
	f := func(ctx int8, tag int8, src uint8, wildTag, wildSrc bool) bool {
		p := Pattern{Ctx: int32(ctx), Tag: int32(tag) & 0x7f, Src: uint64(src)}
		if wildTag {
			p.Tag = AnyTag
		}
		if wildSrc {
			p.Src = AnySource
		}
		s := NewPatternSet[struct{}]()
		s.Add(p, struct{}{})
		c := Concrete{Ctx: int32(ctx), Tag: int32(tag) & 0x7f, Src: uint64(src)}
		_, ok := s.Match(c)
		return ok == p.Matches(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPatternSetPostMatch(b *testing.B) {
	s := NewPatternSet[int]()
	for i := 0; i < b.N; i++ {
		s.Add(Pattern{1, int32(i % 8), AnySource}, i)
		if _, ok := s.Match(Concrete{1, int32(i % 8), 3}); !ok {
			b.Fatal("no match")
		}
	}
}

func BenchmarkItemSet650PendingWildcards(b *testing.B) {
	// The workload behind the paper's 650-simultaneous-receives claim.
	for i := 0; i < b.N; i++ {
		s := NewPatternSet[int]()
		for j := 0; j < 650; j++ {
			s.Add(Pattern{1, int32(j), AnySource}, j)
		}
		for j := 0; j < 650; j++ {
			if _, ok := s.Match(Concrete{1, int32(j), 0}); !ok {
				b.Fatal("no match")
			}
		}
	}
}

// The steady post-then-match cycle allocates nothing: entries come back
// through each set's free list and bucket queues keep their arrays.
func TestEntriesRecycled(t *testing.T) {
	ps := NewPatternSet[int]()
	is := NewItemSet[int]()
	c := Concrete{1, 5, 2}
	p := Pattern{1, 5, 2}
	cycle := func() {
		ps.Add(p, 1)
		if _, ok := ps.Match(c); !ok {
			t.Fatal("posted pattern not matched")
		}
		is.Add(c, 2)
		if _, ok := is.Match(p); !ok {
			t.Fatal("arrived item not matched")
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("post-then-match allocates %.1f times per cycle, want 0", n)
	}
	// An item only ever taken through its ANY_SOURCE bucket is freed
	// from the exact bucket, which nothing visits, by the next arrival.
	wild := Pattern{1, 5, AnySource}
	wildCycle := func() {
		is.Add(c, 3)
		if _, ok := is.Match(wild); !ok {
			t.Fatal("arrived item not matched by ANY_SOURCE")
		}
	}
	wildCycle()
	if n := testing.AllocsPerRun(100, wildCycle); n != 0 {
		t.Errorf("arrive-then-ANY_SOURCE-match allocates %.1f times per cycle, want 0", n)
	}
	if n := len(is.buckets[p].items); n > 1 {
		t.Errorf("exact bucket holds %d entries after ANY_SOURCE-only matching, want at most 1", n)
	}
}

// An item indexed under several wildcard classes is freed only when the
// last bucket holding it lets go, so a recycled entry never shows up
// under a stale key.
func TestItemEntryFreedByLastBucket(t *testing.T) {
	s := NewItemSet[string]()
	s.Add(Concrete{1, 5, 2}, "old")
	if _, ok := s.Peek(Pattern{1, AnyTag, AnySource}); !ok { // builds the class-3 index
		t.Fatal("wildcard peek missed the item")
	}
	if v, ok := s.Match(Pattern{1, 5, 2}); !ok || v != "old" {
		t.Fatalf("exact Match = (%v, %v)", v, ok)
	}
	if s.free.free != nil {
		t.Fatal("entry freed while the wildcard bucket still holds it")
	}
	// A new arrival under another key must not be served from the stale
	// wildcard slot, nor reuse the entry that slot still holds.
	s.Add(Concrete{1, 6, 3}, "new")
	if v, ok := s.Match(Pattern{1, AnyTag, AnySource}); !ok || v != "new" {
		t.Fatalf("wildcard Match = (%v, %v), want new", v, ok)
	}
	if s.free.free == nil {
		t.Fatal("entries not recycled once every bucket dropped them")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

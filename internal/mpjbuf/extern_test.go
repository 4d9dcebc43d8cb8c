package mpjbuf

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

// The external region: a section of at least borrowMin bytes stays in
// user memory on both sides (Borrow, Land), and every way of carrying
// the message — segments, EncodeWire, the three loaders — agrees with
// the packed form byte for byte.

// hasView reports whether this host aliases at all (little-endian).
var hasView = view([]int32{1}) != nil

func doubles(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i) + 0.5
	}
	return s
}

func join(segs [][]byte) []byte { return bytes.Join(segs, nil) }

func TestBorrowWireFormMatchesWrite(t *testing.T) {
	for _, n := range []int{0, 1, borrowMin/8 - 1, borrowMin / 8, borrowMin/8 + 1, 1 << 17} {
		src := doubles(n)
		var packed, lent Buffer
		if err := Write(&packed, src, 0, n); err != nil {
			t.Fatal(err)
		}
		if err := Borrow(&lent, src, 0, n); err != nil {
			t.Fatal(err)
		}
		if borrowed := lent.ext != nil; borrowed != (hasView && n*8 >= borrowMin) {
			t.Errorf("n=%d: borrowed=%v", n, borrowed)
		}
		want := packed.Wire()
		if got := lent.Wire(); !bytes.Equal(got, want) {
			t.Errorf("n=%d: Wire of a borrowed section differs from the packed one", n)
		}
		if got := join(lent.Segments()); !bytes.Equal(got, want) {
			t.Errorf("n=%d: Segments of a borrowed section differ from the packed wire form", n)
		}
		if lent.WireLen() != len(want) || lent.Len() != packed.Len() || lent.StaticLen() != packed.StaticLen() {
			t.Errorf("n=%d: lengths %d/%d/%d, want %d/%d/%d", n,
				lent.WireLen(), lent.Len(), lent.StaticLen(), len(want), packed.Len(), packed.StaticLen())
		}
		// The sender can read its own buffer back.
		lent.Commit()
		back := make([]float64, n)
		if got, err := Read(&lent, back, 0, n); err != nil || got != n || (n > 0 && back[n-1] != src[n-1]) {
			t.Errorf("n=%d: read back %d, %v", n, got, err)
		}
	}
}

func TestBorrowAliasesUntilDetach(t *testing.T) {
	if !hasView {
		t.Skip("no byte view on this host")
	}
	src := doubles(borrowMin)
	var b Buffer
	if err := Borrow(&b, src, 8, len(src)-8); err != nil {
		t.Fatal(err)
	}
	if len(b.static) != sectionHeaderLen || &b.ext[0] != &view(src[8:])[0] {
		t.Fatal("a large section was copied instead of borrowed")
	}
	before := b.Wire()
	b.Detach()
	if b.ext != nil || !bytes.Equal(b.Wire(), before) {
		t.Fatal("Detach changed the wire form or kept the alias")
	}
	src[8] = -1
	if !bytes.Equal(b.Wire(), before) {
		t.Fatal("a detached buffer still sees the user's array")
	}
}

// A write after a borrowed section folds the borrowed bytes in: ext is
// always the tail of the static part.
func TestWriteAfterBorrowKeepsOrder(t *testing.T) {
	src := doubles(borrowMin)
	var lent, packed Buffer
	Borrow(&lent, src, 0, len(src))
	Write(&packed, src, 0, len(src))
	for _, b := range []*Buffer{&lent, &packed} {
		if err := b.WriteInts([]int32{7, 8}, 0, 2); err != nil {
			t.Fatal(err)
		}
		if err := Borrow(b, src, 0, len(src)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(lent.Wire(), packed.Wire()) {
		t.Fatal("sections after a borrowed one came out of order")
	}
}

func TestResetAndClearDropUserMemory(t *testing.T) {
	src := doubles(borrowMin)
	for name, drop := range map[string]func(*Buffer){"Reset": (*Buffer).Reset, "Clear": (*Buffer).Clear} {
		var b Buffer
		Borrow(&b, src, 0, len(src))
		Land(&b, src)
		drop(&b)
		if b.ext != nil || b.land != nil {
			t.Errorf("%s kept a reference to user memory", name)
		}
	}
}

// landCases is the landing decision table: each message is loaded into
// a buffer whose landing zone is a []float64 of zone elements.
var landCases = []struct {
	name  string
	zone  int
	build func(b *Buffer)
	lands bool
}{
	{"exact fit", 1 << 10, func(b *Buffer) { Write(b, doubles(1<<10), 0, 1<<10) }, true},
	{"shorter than the zone", 1 << 11, func(b *Buffer) { Write(b, doubles(1<<10), 0, 1<<10) }, true},
	{"borrowed sender", 1 << 10, func(b *Buffer) { Borrow(b, doubles(1<<10), 0, 1<<10) }, true},
	{"longer than the zone", 1<<10 - 1, func(b *Buffer) { Write(b, doubles(1<<10), 0, 1<<10) }, false},
	{"below the threshold", 1 << 10, func(b *Buffer) { Write(b, doubles(borrowMin/8-1), 0, borrowMin/8-1) }, false},
	{"other type", 1 << 10, func(b *Buffer) { Write(b, make([]int64, 1<<10), 0, 1<<10) }, false},
	{"two sections", 1 << 11, func(b *Buffer) {
		Write(b, doubles(1<<10), 0, 1<<10)
		Write(b, doubles(4), 0, 4)
	}, false},
	{"dynamic section", 1 << 11, func(b *Buffer) {
		Write(b, doubles(1<<10), 0, 1<<10)
		b.WriteObjects([]any{"x"}, 0, 1)
	}, false},
	{"count disagrees with the length", 1 << 11, func(b *Buffer) {
		Write(b, doubles(1<<10), 0, 1<<10)
		b.static[4]++ // one more element than there are bytes for
	}, false},
}

func TestLandDecisionTable(t *testing.T) {
	loaders := map[string]func(dst, src *Buffer) error{
		"LoadWire":     func(dst, src *Buffer) error { return dst.LoadWire(src.Wire()) },
		"LoadWireFrom": func(dst, src *Buffer) error { w := src.Wire(); return dst.LoadWireFrom(bytes.NewReader(w), len(w)) },
		"LoadBuffer":   func(dst, src *Buffer) error { return dst.LoadBuffer(src) },
	}
	for _, c := range landCases {
		for lname, load := range loaders {
			var src, plain, landed Buffer
			c.build(&src)
			zone := make([]float64, c.zone)
			Land(&landed, zone)
			if err := load(&plain, &src); err != nil {
				t.Fatalf("%s/%s: %v", c.name, lname, err)
			}
			if err := load(&landed, &src); err != nil {
				t.Fatalf("%s/%s with a zone: %v", c.name, lname, err)
			}
			if got := landed.ext != nil; got != (c.lands && hasView) {
				t.Errorf("%s/%s: landed=%v, want %v", c.name, lname, got, c.lands && hasView)
			}
			if landed.land != nil {
				t.Errorf("%s/%s: the load did not consume the zone", c.name, lname)
			}
			// With or without a zone the buffer is the same message.
			if !bytes.Equal(landed.Wire(), plain.Wire()) {
				t.Errorf("%s/%s: a registered zone changed the message", c.name, lname)
			}
			if !c.lands {
				for _, v := range zone {
					if v != 0 {
						t.Fatalf("%s/%s: a message that does not land wrote the zone", c.name, lname)
					}
				}
				continue
			}
			// Reading into the zone copies nothing and finds the data.
			var copied int
			SetProbe(&Probe{Copied: func(n int) { copied += n }})
			n, err := Read(&landed, zone, 0, len(zone))
			SetProbe(nil)
			if err != nil || n != 1<<10 || zone[n-1] != float64(n-1)+0.5 {
				t.Errorf("%s/%s: read %d, %v", c.name, lname, n, err)
			}
			if hasView && copied != 0 {
				t.Errorf("%s/%s: reading a landed section in place copied %d bytes", c.name, lname, copied)
			}
			// Reading somewhere else still works: it is one copy.
			landed.Commit()
			other := make([]float64, 1<<10)
			if n, err := Read(&landed, other, 0, len(other)); err != nil || n != 1<<10 || other[7] != 7.5 {
				t.Errorf("%s/%s: read elsewhere %d, %v", c.name, lname, n, err)
			}
		}
	}
}

// LoadBuffer is one copy of the payload and nothing else.
func TestLoadBufferCopiesOnce(t *testing.T) {
	if !hasView {
		t.Skip("no byte view on this host")
	}
	const n = 1 << 17
	src, dst := doubles(n), make([]float64, n)
	var sb, rb Buffer
	Borrow(&sb, src, 0, n)
	Land(&rb, dst)
	var copied int
	SetProbe(&Probe{Copied: func(k int) { copied += k }})
	err := rb.LoadBuffer(&sb)
	if err == nil {
		_, err = Read(&rb, dst, 0, n)
	}
	SetProbe(nil)
	if err != nil {
		t.Fatal(err)
	}
	if copied != n*8 {
		t.Errorf("sender buffer to landing zone moved %d bytes, want exactly %d", copied, n*8)
	}
	if dst[n-1] != src[n-1] || math.IsNaN(dst[0]) {
		t.Error("payload did not arrive")
	}
}

// A user slice whose capacity is exactly a store class is sent from,
// received into and its buffers Reset: the store never gets hold of it.
func TestUserMemoryNeverEntersStore(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if !hasView {
		t.Skip("no byte view on this host")
	}
	const bytesCap = 1<<20 + classSlack
	user := make([]float64, bytesCap/8)
	if cap(view(user)) != bytesCap {
		t.Fatalf("test slice has byte capacity %d, want the class size %d", cap(view(user)), bytesCap)
	}
	for i := range user {
		user[i] = 1
	}
	var sb, rb Buffer
	Borrow(&sb, user, 0, len(user))
	Land(&rb, user)
	if err := rb.LoadBuffer(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.ext == nil || rb.ext == nil {
		t.Fatal("test message neither borrowed nor landed")
	}
	sb.Reset()
	rb.Reset()
	// Whatever the store hands out next is scribbled on; the user's
	// array must not notice.
	var held [][]byte
	for i := 0; i < 8; i++ {
		s := GetBytes(1 << 20)
		for j := range s {
			s[j] = 0xAB
		}
		held = append(held, s)
	}
	for i, v := range user {
		if v != 1 {
			t.Fatalf("GetBytes returned memory aliasing a user slice (element %d overwritten)", i)
		}
	}
	for _, s := range held {
		PutBytes(s)
	}
}

// AppendSegments and the length accessors allocate nothing: the wire
// header lives in the Buffer.
func TestAppendSegmentsAllocatesNothing(t *testing.T) {
	src := doubles(1 << 17)
	var b Buffer
	Borrow(&b, src, 0, len(src))
	var list [4][]byte
	if n := testing.AllocsPerRun(100, func() {
		segs := b.AppendSegments(list[:0])
		if len(segs) < 3 || b.WireLen() == 0 {
			t.Fatal("bad segment list")
		}
	}); n != 0 {
		t.Errorf("AppendSegments allocates %.0f times per call", n)
	}
}

// A steady-state LoadWireFrom from a buffered reader — niodev's receive
// into a posted buffer — allocates nothing: the wire header is read into
// the Buffer, not into an array that escapes through the io.Reader.
func TestLoadWireFromAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts only hold in normal builds")
	}
	var src Buffer
	src.WriteBytes([]byte("8 bytes!"), 0, 8)
	wire := src.Wire()
	rd := bytes.NewReader(wire)
	br := bufio.NewReader(rd)
	var b Buffer
	load := func() {
		rd.Reset(wire)
		br.Reset(rd)
		if err := b.LoadWireFrom(br, len(wire)); err != nil {
			t.Fatal(err)
		}
	}
	load() // warm: the static section's backing is allocated once
	if n := testing.AllocsPerRun(100, load); n != 0 {
		t.Errorf("LoadWireFrom allocates %.1f times per message, want 0", n)
	}
	got := make([]byte, 8)
	if _, err := b.ReadBytes(got, 0, 8); err != nil || string(got) != "8 bytes!" {
		t.Errorf("loaded %q, %v", got, err)
	}
}

// Forwarding one buffer to several destinations must not rewrite the
// wire header under a transport still reading it.
func TestWireHeaderWrittenOnce(t *testing.T) {
	var b Buffer
	b.WriteInts([]int32{1, 2, 3}, 0, 3)
	h1 := b.Segments()[0]
	snapshot := append([]byte(nil), h1...)
	h1[0] ^= 0xFF // a stale header is rewritten …
	if h2 := b.Segments()[0]; !bytes.Equal(h2, snapshot) {
		t.Fatal("stale wire header not refreshed")
	}
	done := make(chan struct{})
	go func() { // … a current one is only read (the race detector watches)
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = b.Segments()[0][3]
		}
	}()
	for i := 0; i < 100; i++ {
		_ = b.Segments()[0][3]
	}
	<-done
}

package mpjbuf

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestStoreBoundaries is the boundary table of the byte store: a 2^k
// payload, its section (+5), its wire form (+13) and a framed wire form
// (+21) all live in class k, and a slab handed back — directly or by a
// Buffer's Reset — is the one the next request of that class gets.
func TestStoreBoundaries(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	// One P and no collection: nothing but the store decides which slab
	// comes back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, k := range []int{16, 20, 22} {
		for _, extra := range []int{0, 5, 13, 21} {
			n := 1<<k + extra
			s := GetBytes(n)
			if len(s) != n || cap(s) != 1<<k+classSlack {
				t.Fatalf("GetBytes(2^%d+%d): len %d cap %d, want class %d", k, extra, len(s), cap(s), k)
			}
			first := &s[0]
			PutBytes(s)
			if s = GetBytes(n); &s[0] != first {
				t.Errorf("GetBytes(2^%d+%d) after PutBytes: fresh backing", k, extra)
			}
			PutBytes(s)

			b := New(0)
			b.Grow(n)
			if &b.static[:1][0] != first {
				t.Errorf("Grow(2^%d+%d): backing not drawn from the store", k, extra)
			}
			b.Reset()
			if b.static != nil {
				t.Errorf("Reset kept %d bytes of backing on the buffer", cap(b.static))
			}
			// The receive path: a wire form whose static section is n bytes.
			hdr := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(n)), 0)
			if err := b.LoadWireFrom(io.MultiReader(bytes.NewReader(hdr), zeroReader{}), wireHeaderLen+n); err != nil {
				t.Fatal(err)
			}
			if &b.static[0] != first {
				t.Errorf("LoadWireFrom(2^%d+%d) after Reset: fresh backing", k, extra)
			}
			b.Reset()
		}
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// TestStoreClasses walks the class edges on either side of the slack.
func TestStoreClasses(t *testing.T) {
	for _, c := range []struct{ n, class int }{
		{0, -1}, {-1, -1}, {1, minClassBits}, {1<<minClassBits + classSlack, minClassBits},
		{1<<minClassBits + classSlack + 1, minClassBits + 1},
		{1 << 20, 20}, {1<<20 + classSlack, 20}, {1<<20 + classSlack + 1, 21},
		{1<<maxClassBits + classSlack, maxClassBits}, {1<<maxClassBits + classSlack + 1, -1},
	} {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	// Foreign slices are dropped, never adopted into a class.
	PutBytes(make([]byte, 100))
	PutBytes(nil)
	if s := GetBytes(-3); len(s) != 0 {
		t.Errorf("GetBytes(-3) has length %d", len(s))
	}
}

// TestElemsAligned: a typed view of a store slab starts on its element
// type's alignment for every class, holds what is written to it, and
// goes back to the store whole.
func TestElemsAligned(t *testing.T) {
	elemsAligned[byte](t)
	elemsAligned[uint16](t)
	elemsAligned[int16](t)
	elemsAligned[int32](t)
	elemsAligned[int64](t)
	elemsAligned[float32](t)
	elemsAligned[float64](t)
	if s := GetElems[bool](5); len(s) != 5 || s[0] || s[4] {
		t.Errorf("GetElems[bool](5) = %v, want 5 fresh falses", s)
	}
	if s := GetElems[float64](0); len(s) != 0 {
		t.Errorf("GetElems(0) has length %d", len(s))
	}
}

func elemsAligned[T byte | uint16 | int16 | int32 | int64 | float32 | float64](t *testing.T) {
	var z T
	typ := reflect.TypeOf(z)
	for k := 0; k <= 21; k++ {
		for _, n := range []int{1<<k - 1, 1 << k, 1<<k + 3} {
			if n <= 0 {
				continue
			}
			s := GetElems[T](n)
			if len(s) != n {
				t.Fatalf("GetElems[%v](%d): length %d", typ, n, len(s))
			}
			if p := reflect.ValueOf(s).Pointer(); p%uintptr(typ.Align()) != 0 {
				t.Fatalf("GetElems[%v](%d) at %#x: not %d-byte aligned", typ, n, p, typ.Align())
			}
			s[n-1], s[0] = T(2), T(1)
			if s[0] != T(1) || (n > 1 && s[n-1] != T(2)) {
				t.Fatalf("GetElems[%v](%d): ends do not hold their values", typ, n)
			}
			// Little-endian hosts carve the view from a slab (big-endian ones
			// have no byte view and allocate).
			cls := classFor(n * int(typ.Size()))
			if c := cap(s) * int(typ.Size()); view(s) != nil && cls >= 0 && c != 1<<cls+classSlack {
				t.Fatalf("GetElems[%v](%d): view covers %d bytes, not its whole slab", typ, n, c)
			}
			PutElems(s)
		}
	}
}

// TestSmallBackingStaysInline: Reset keeps backing of at most keepCap
// on the buffer, so the small-message path never visits the store.
func TestSmallBackingStaysInline(t *testing.T) {
	b := New(0)
	if err := b.WriteBytes(make([]byte, 32<<10), 0, 32<<10); err != nil {
		t.Fatal(err)
	}
	backing := &b.static[0]
	b.Reset()
	if cap(b.static) == 0 || &b.static[:1][0] != backing {
		t.Fatal("Reset gave a 32 KiB section's backing away")
	}
}

package mpjbuf

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The decoders' contract on arbitrary bytes: a typed error or success,
// never a panic, and never backing memory beyond the class the input's
// own length falls in (a header cannot talk the buffer into a larger
// allocation than the bytes that arrived).

func checkBacking(t *testing.T, b *Buffer, input int) {
	t.Helper()
	if limit := 2*input + classSlack + 1<<minClassBits; cap(b.static) > limit {
		t.Fatalf("%d input bytes left %d bytes of static backing (limit %d)", input, cap(b.static), limit)
	}
}

// drain reads every section of a committed buffer the way a receiver
// with a small destination would, until the first error.
func drain(t *testing.T, b *Buffer) {
	t.Helper()
	const room = 64
	for {
		typ, _, ok := b.PeekSection()
		if !ok {
			return
		}
		var err error
		switch typ {
		case ByteType:
			_, err = b.ReadBytes(make([]byte, room), 0, room)
		case BooleanType:
			_, err = b.ReadBooleans(make([]bool, room), 0, room)
		case CharType:
			_, err = b.ReadChars(make([]uint16, room), 0, room)
		case ShortType:
			_, err = b.ReadShorts(make([]int16, room), 0, room)
		case IntType:
			_, err = b.ReadInts(make([]int32, room), 0, room)
		case LongType:
			_, err = b.ReadLongs(make([]int64, room), 0, room)
		case FloatType:
			_, err = b.ReadFloats(make([]float32, room), 0, room)
		case DoubleType:
			_, err = b.ReadDoubles(make([]float64, room), 0, room)
		case ObjectType:
			_, err = b.ReadObjects(make([]any, room), 0, room)
		default:
			if _, err = b.ReadBytes(nil, 0, 0); err == nil {
				t.Fatalf("section with unknown type tag %d accepted", typ)
			}
		}
		if err != nil {
			return
		}
	}
}

func fuzzSeeds(f *testing.F) {
	b := New(0)
	b.WriteDoubles([]float64{1, 2, 3}, 0, 3)
	b.WriteBooleans([]bool{true, false}, 0, 2)
	b.WriteObjects([]any{"x", int64(7)}, 0, 2)
	f.Add(b.Wire())
	b.Clear()
	b.WriteDoubles(make([]float64, borrowMin/8), 0, borrowMin/8) // large enough to land
	f.Add(b.Wire())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 0, byte(IntType), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
}

// FuzzLoadWire feeds arbitrary bytes to both wire-form loaders, and to
// one with a landing zone registered: a zone may change where the bytes
// go, never what the message is or whether it is accepted.
func FuzzLoadWire(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, wire []byte) {
		var a, b, c Buffer
		Land(&c, make([]float64, borrowMin/8))
		errA := a.LoadWire(wire)
		errB := b.LoadWireFrom(bytes.NewReader(wire), len(wire))
		errC := c.LoadWireFrom(bytes.NewReader(wire), len(wire))
		if (errA == nil) != (errB == nil) || (errA == nil) != (errC == nil) {
			t.Fatalf("LoadWire: %v, LoadWireFrom: %v, with a landing zone: %v", errA, errB, errC)
		}
		checkBacking(t, &a, len(wire))
		checkBacking(t, &b, len(wire))
		checkBacking(t, &c, len(wire))
		if errA != nil {
			return
		}
		if !bytes.Equal(a.static, b.static) || !bytes.Equal(a.dynamic.Bytes(), b.dynamic.Bytes()) {
			t.Fatal("the two loaders disagree on the sections")
		}
		if !bytes.Equal(c.Wire(), a.Wire()) {
			t.Fatal("a landing zone changed the message")
		}
		drain(t, &a)
	})
}

// FuzzReadSections treats the input as a static section and reads it
// back through the typed readers.
func FuzzReadSections(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, static []byte) {
		wire := binary.BigEndian.AppendUint32(nil, uint32(len(static)))
		wire = append(binary.BigEndian.AppendUint32(wire, 0), static...)
		var b Buffer
		if err := b.LoadWire(wire); err != nil {
			t.Fatalf("well-formed wire header refused: %v", err)
		}
		checkBacking(t, &b, len(wire))
		drain(t, &b)
	})
}

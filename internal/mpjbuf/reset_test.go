package mpjbuf

import (
	"bytes"
	"testing"
)

func TestResetReuse(t *testing.T) {
	b := New(64)
	if err := b.WriteInts([]int32{1, 2, 3}, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteObjects([]any{"hello"}, 0, 1); err != nil {
		t.Fatal(err)
	}
	b.Commit()
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	if err := b.WriteDoubles([]float64{3.5}, 0, 1); err != nil {
		t.Fatalf("write after Reset: %v", err)
	}
	b.Commit()
	var out [1]float64
	if _, err := b.ReadDoubles(out[:], 0, 1); err != nil || out[0] != 3.5 {
		t.Fatalf("read after Reset: %v %v", out[0], err)
	}
}

func TestEncodeWireMatchesWire(t *testing.T) {
	b := New(0)
	if err := b.WriteBytes([]byte("abcdef"), 0, 6); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteObjects([]any{int64(42)}, 0, 1); err != nil {
		t.Fatal(err)
	}
	b.Commit()
	want := b.Wire()
	dst := make([]byte, b.WireLen())
	if n := b.EncodeWire(dst); n != len(want) {
		t.Fatalf("EncodeWire wrote %d bytes, want %d", n, len(want))
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("EncodeWire != Wire")
	}
	var c Buffer
	if err := c.LoadWire(dst); err != nil {
		t.Fatalf("LoadWire of EncodeWire output: %v", err)
	}
	var out [6]byte
	if _, err := c.ReadBytes(out[:], 0, 6); err != nil || string(out[:]) != "abcdef" {
		t.Fatalf("round trip: %q %v", out[:], err)
	}
}

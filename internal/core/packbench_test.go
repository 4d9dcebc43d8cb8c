package core

import (
	"fmt"
	"testing"

	"mpj/internal/devcore"
	"mpj/internal/mpjbuf"
)

// BenchmarkPack is the §V-E cost in isolation: packing a typed user
// array into a pooled wire buffer as Send does (GetBuffer, packInto,
// PutBuffer) and unpacking it as Recv does, timed separately, for every
// primitive type × message size × {contiguous, vector stride 2}. MB/s
// against a memmove of the same bytes is the figure of merit.
func BenchmarkPack(b *testing.B) {
	benchPack[byte](b, BYTE)
	benchPack[bool](b, BOOLEAN)
	benchPack[uint16](b, CHAR)
	benchPack[int16](b, SHORT)
	benchPack[int32](b, INT)
	benchPack[int64](b, LONG)
	benchPack[float32](b, FLOAT)
	benchPack[float64](b, DOUBLE)
}

func benchPack[T mpjbuf.Elem](b *testing.B, base *Datatype) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"8B", 8}, {"32KiB", 32 << 10}, {"1MiB", 1 << 20}, {"4MiB", 4 << 20}} {
		elems := size.bytes / base.base.Size()
		// Every other element, in items of up to 64 so the displacement
		// list stays small whatever the message size.
		per := min(elems, 64)
		vector, err := base.Vector(per, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, layout := range []struct {
			name  string
			dt    *Datatype
			count int
		}{{"contig", base, elems}, {"vector2", vector, elems / per}} {
			dt, count := layout.dt, layout.count
			if dt != base && dt.IsContiguous() {
				continue // a one-element message has no stride
			}
			var user any = make([]T, count*dt.extent+1) // boxed once, as at a caller's Send
			name := fmt.Sprintf("%s/%s/%s", base, size.name, layout.name)
			b.Run("pack/"+name, func(b *testing.B) {
				b.SetBytes(int64(size.bytes))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					wire := devcore.GetBuffer()
					if err := packInto(wire, user, 0, count, dt); err != nil {
						b.Fatal(err)
					}
					devcore.PutBuffer(wire)
				}
			})
			b.Run("unpack/"+name, func(b *testing.B) {
				wire, err := pack(user, 0, count, dt)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(size.bytes))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					wire.Commit() // rewinds the read cursor
					if _, err := unpack(wire, user, 0, count, dt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

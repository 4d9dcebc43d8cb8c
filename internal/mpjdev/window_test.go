package mpjdev

import (
	"testing"

	"mpj/internal/mpjbuf"
)

// TestWindowStream pipes a segmented stream through a bounded window
// on both sides: the sender never holds more than the window limit of
// outstanding Isends, the receiver never more than its limit of
// outstanding Irecvs, and segments arrive in posted order.
func TestWindowStream(t *testing.T) {
	const (
		segs  = 23
		limit = 4
	)
	runJob(t, 2, func(c *Comm, rank int) {
		if rank == 0 {
			win := NewWindow(limit)
			for s := 0; s < segs; s++ {
				if win.Full() {
					if _, err := win.WaitOldest(); err != nil {
						t.Errorf("sender WaitOldest: %v", err)
						return
					}
				}
				b := mpjbuf.New(0)
				if err := b.WriteInts([]int32{int32(s)}, 0, 1); err != nil {
					t.Errorf("pack: %v", err)
					return
				}
				r, err := c.Isend(b, 1, 100+s)
				if err != nil {
					t.Errorf("Isend seg %d: %v", s, err)
					return
				}
				if err := win.Add(r); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				if got := win.Len(); got > limit {
					t.Errorf("window over limit: %d", got)
				}
			}
			if err := win.Drain(); err != nil {
				t.Errorf("sender Drain: %v", err)
			}
			if win.Len() != 0 {
				t.Errorf("window not empty after Drain: %d", win.Len())
			}
			return
		}

		win := NewWindow(limit)
		bufs := make([]*mpjbuf.Buffer, 0, limit)
		next := 0 // next segment to deliver
		deliver := func() bool {
			st, err := win.WaitOldest()
			if err != nil {
				t.Errorf("recv WaitOldest: %v", err)
				return false
			}
			if st.Tag != 100+next {
				t.Errorf("segment out of order: tag %d, want %d", st.Tag, 100+next)
				return false
			}
			got := make([]int32, 1)
			if _, err := bufs[0].ReadInts(got, 0, 1); err != nil {
				t.Errorf("unpack seg %d: %v", next, err)
				return false
			}
			if got[0] != int32(next) {
				t.Errorf("segment %d carried %d", next, got[0])
				return false
			}
			bufs = bufs[1:]
			next++
			return true
		}
		for s := 0; s < segs; s++ {
			if win.Full() && !deliver() {
				return
			}
			b := mpjbuf.New(0)
			r, err := c.Irecv(b, 0, 100+s)
			if err != nil {
				t.Errorf("Irecv seg %d: %v", s, err)
				return
			}
			if err := win.Add(r); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
			bufs = append(bufs, b)
		}
		for win.Len() > 0 {
			if !deliver() {
				return
			}
		}
		if next != segs {
			t.Errorf("delivered %d segments, want %d", next, segs)
		}
	})
}

// TestWindowMisuse checks the error shapes of the bound and of waiting
// on an empty window.
func TestWindowMisuse(t *testing.T) {
	w := NewWindow(0) // clamps to 1
	if _, err := w.WaitOldest(); err == nil {
		t.Error("WaitOldest on empty window should fail")
	}
	if err := w.Add(Request{}); err != nil {
		t.Errorf("first Add: %v", err)
	}
	if !w.Full() {
		t.Error("window of 1 should be full after one Add")
	}
	if err := w.Add(Request{}); err == nil {
		t.Error("Add past the bound should fail")
	}
}

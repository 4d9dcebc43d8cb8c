package devtest

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/core"
	"mpj/internal/mpjbuf"
	"mpj/internal/xdev"
)

// User-memory conformance: large contiguous messages are sent from and
// received into the application's arrays (mpjbuf's borrowed and landed
// sections), so the device touches user memory directly. This suite
// pins the contract that makes that safe on every device — MPI's own:
// send memory is the caller's again when the send completes, receive
// memory is written only until the receive completes — and that every
// message the fast path does not take arrives exactly as it always did.
// It layers core onto the runner's devices, like the recovery suite.

// UserMemOptions tailors the suite to a device.
type UserMemOptions struct {
	// PostedCopies is how many times mpjbuf copies the payload of a
	// 1 MiB contiguous message whose receive is already posted: 0 on a
	// device that reads and writes user memory through its transport
	// (niodev and what is built on it), 1 on a shared-memory device (the
	// one copy from the sender's array into the receiver's), 2 on a
	// device that stages every message (wire form out, wire form in).
	// Negative skips the count.
	PostedCopies int
	// StoreBalance adds the byte-store balance check: every large slab
	// drawn from mpjbuf's store during a job is back when the job's
	// devices have finished.
	StoreBalance bool
}

// RunUserMemory runs the suite.
func RunUserMemory(t *testing.T, run JobRunner, opts UserMemOptions) {
	t.Run("SendThenScribble", func(t *testing.T) { testSendThenScribble(t, run) })
	t.Run("LandingFallback", func(t *testing.T) { testLandingFallback(t, run) })
	if opts.PostedCopies >= 0 {
		t.Run("CopyCount", func(t *testing.T) { testCopyCount(t, run, opts.PostedCopies) })
	}
	if opts.StoreBalance {
		t.Run("StoreBalance", func(t *testing.T) { testStoreBalance(t, run) })
	}
}

// Tags: the hand-shake that orders "receive posted" before "send", and
// the message under test.
const (
	tagGo   = 900
	tagData = 901
)

func pattern(n, seed int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(seed*1_000_003 + i)
	}
	return s
}

// exchange moves one message from rank 0 to rank 1 with the receive
// either already posted when the send starts (early) or posted only
// after the sender has had time to finish or block (late, the
// unexpected path). send runs on rank 0 once the receiver is where the
// case wants it; post and finish bracket the receive on rank 1.
func exchange(t *testing.T, w *core.Intracomm, early bool, send func() error,
	post func() (*core.Request, error), finish func(*core.Status, error)) {
	t.Helper()
	token := []byte{1}
	switch w.Rank() {
	case 0:
		if early {
			if _, err := w.Recv(token, 0, 1, core.BYTE, 1, tagGo); err != nil {
				t.Errorf("hand-shake: %v", err)
				return
			}
		}
		if err := send(); err != nil {
			t.Errorf("send: %v", err)
		}
	case 1:
		if !early {
			time.Sleep(20 * time.Millisecond)
		}
		req, err := post()
		if err != nil {
			finish(nil, err)
			return
		}
		if early {
			if err := w.Send(token, 0, 1, core.BYTE, 0, tagGo); err != nil {
				t.Errorf("hand-shake: %v", err)
			}
		}
		finish(req.Wait())
	}
}

// testSendThenScribble: as soon as a send has completed the sender
// overwrites its array; the receiver must still see the original
// bytes, whichever of them was first.
func testSendThenScribble(t *testing.T, run JobRunner) {
	modes := map[string]func(w *core.Intracomm, buf []float64) error{
		"Send": func(w *core.Intracomm, buf []float64) error { return w.Send(buf, 0, len(buf), core.DOUBLE, 1, tagData) },
		"Ssend": func(w *core.Intracomm, buf []float64) error {
			return w.Ssend(buf, 0, len(buf), core.DOUBLE, 1, tagData)
		},
		"IsendWait": func(w *core.Intracomm, buf []float64) error {
			r, err := w.Isend(buf, 0, len(buf), core.DOUBLE, 1, tagData)
			if err == nil {
				_, err = r.Wait()
			}
			return err
		},
	}
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		w := attach(t, d, pids, rank)
		if w == nil {
			return
		}
		seed := 0
		for _, n := range []int{1, 8 << 10, 128 << 10} { // 8 B, 64 KiB, 1 MiB
			for _, mode := range []string{"Send", "Ssend", "IsendWait"} {
				for _, early := range []bool{false, true} {
					seed++
					name := fmt.Sprintf("%s of %d doubles, receive posted early=%v", mode, n, early)
					got := make([]float64, n)
					exchange(t, w, early,
						func() error {
							buf := pattern(n, seed)
							err := modes[mode](w, buf)
							for i := range buf {
								buf[i] = -1 // the send is complete: the array is ours
							}
							return err
						},
						func() (*core.Request, error) { return w.Irecv(got, 0, n, core.DOUBLE, 0, tagData) },
						func(st *core.Status, err error) {
							if err != nil {
								t.Errorf("%s: %v", name, err)
								return
							}
							if st.Count() != n {
								t.Errorf("%s: count %d", name, st.Count())
							}
							for i, v := range pattern(n, seed) {
								if got[i] != v {
									t.Errorf("%s: element %d is %v, want %v", name, i, got[i], v)
									return
								}
							}
						})
				}
			}
		}
	})
}

// fallbackCase is one row of the landing fall-back table: what rank 0
// sends, what rank 1 posts, and what must come of it.
type fallbackCase struct {
	name string
	send func(w *core.Intracomm) error
	post func(w *core.Intracomm) (*core.Request, error)
	// check inspects the completed receive; st is nil when err is not.
	check func(st *core.Status, err error) string
}

const bigN = 128 << 10 // 1 MiB of doubles

func wantErr(substr string, untouched func() bool) func(*core.Status, error) string {
	return func(_ *core.Status, err error) string {
		switch {
		case err == nil:
			return "receive succeeded, want an error containing " + substr
		case !strings.Contains(err.Error(), substr):
			return fmt.Sprintf("error %q does not contain %q", err, substr)
		case !untouched():
			return "a receive that failed before any data could land wrote the user's array"
		}
		return ""
	}
}

func fallbackCases() []fallbackCase {
	src := pattern(bigN, 42)
	sendAll := func(w *core.Intracomm) error { return w.Send(src, 0, bigN, core.DOUBLE, 1, tagData) }
	same := func(got []float64, want []float64) bool {
		for i, v := range want {
			if got[i] != v {
				return false
			}
		}
		return true
	}
	all := func(v float64, s []float64) func() bool {
		return func() bool {
			for _, x := range s {
				if x != v {
					return false
				}
			}
			return true
		}
	}
	var cases []fallbackCase

	{ // sender count < receiver count: the short message lands n elements
		const short = bigN - 3000
		got := filled(bigN, -7)
		cases = append(cases, fallbackCase{"shorter than the receive",
			func(w *core.Intracomm) error { return w.Send(src, 0, short, core.DOUBLE, 1, tagData) },
			func(w *core.Intracomm) (*core.Request, error) { return w.Irecv(got, 0, bigN, core.DOUBLE, 0, tagData) },
			func(st *core.Status, err error) string {
				if err != nil {
					return err.Error()
				}
				if st.Count() != short || !same(got, src[:short]) || !all(-7, got[short:])() {
					return fmt.Sprintf("count %d; data or the untouched tail is wrong", st.Count())
				}
				return ""
			}})
	}
	{ // equal counts
		got := make([]float64, bigN)
		cases = append(cases, fallbackCase{"exactly the receive", sendAll,
			func(w *core.Intracomm) (*core.Request, error) { return w.Irecv(got, 0, bigN, core.DOUBLE, 0, tagData) },
			func(st *core.Status, err error) string {
				if err != nil {
					return err.Error()
				}
				if st.Count() != bigN || !same(got, src) {
					return fmt.Sprintf("count %d or data wrong", st.Count())
				}
				return ""
			}})
	}
	{ // sender count > receiver count: today's error, nothing written
		got := filled(bigN, -7)
		cases = append(cases, fallbackCase{"longer than the receive", sendAll,
			func(w *core.Intracomm) (*core.Request, error) {
				return w.Irecv(got, 0, bigN-1, core.DOUBLE, 0, tagData)
			},
			wantErr("section holds", all(-7, got))})
	}
	{ // type mismatch
		got := make([]int64, bigN)
		cases = append(cases, fallbackCase{"type mismatch", sendAll,
			func(w *core.Intracomm) (*core.Request, error) { return w.Irecv(got, 0, bigN, core.LONG, 0, tagData) },
			wantErr("type mismatch", func() bool {
				for _, x := range got {
					if x != 0 {
						return false
					}
				}
				return true
			})})
	}
	{ // vector datatype on the send side: one gathered section, which lands
		const blocks = 16 << 10
		vec, _ := core.DOUBLE.Vector(blocks, 1, 2) // every other element
		strided := pattern(2*blocks, 5)
		got := make([]float64, blocks)
		cases = append(cases, fallbackCase{"vector on the sender",
			func(w *core.Intracomm) error { return w.Send(strided, 0, 1, vec, 1, tagData) },
			func(w *core.Intracomm) (*core.Request, error) {
				return w.Irecv(got, 0, blocks, core.DOUBLE, 0, tagData)
			},
			func(st *core.Status, err error) string {
				if err != nil {
					return err.Error()
				}
				for i, v := range got {
					if v != strided[2*i] {
						return fmt.Sprintf("element %d is %v", i, v)
					}
				}
				return ""
			}})
	}
	{ // vector datatype on the receive side: scattered, gaps untouched
		const blocks = 16 << 10
		vec, _ := core.DOUBLE.Vector(blocks, 1, 2)
		got := filled(2*blocks, -7)
		cases = append(cases, fallbackCase{"vector on the receiver",
			func(w *core.Intracomm) error { return w.Send(src, 0, blocks, core.DOUBLE, 1, tagData) },
			func(w *core.Intracomm) (*core.Request, error) { return w.Irecv(got, 0, 1, vec, 0, tagData) },
			func(st *core.Status, err error) string {
				if err != nil {
					return err.Error()
				}
				for i := 0; i < blocks; i++ {
					if got[2*i] != src[i] || got[2*i+1] != -7 {
						return fmt.Sprintf("item %d is (%v, %v)", i, got[2*i], got[2*i+1])
					}
				}
				return ""
			}})
	}
	{ // []bool never aliases: a bool must hold 0 or 1
		const n = 64 << 10
		flags, got := make([]bool, n), make([]bool, n)
		for i := range flags {
			flags[i] = i%3 == 0
		}
		cases = append(cases, fallbackCase{"booleans",
			func(w *core.Intracomm) error { return w.Send(flags, 0, n, core.BOOLEAN, 1, tagData) },
			func(w *core.Intracomm) (*core.Request, error) { return w.Irecv(got, 0, n, core.BOOLEAN, 0, tagData) },
			func(st *core.Status, err error) string {
				if err != nil {
					return err.Error()
				}
				for i := range got {
					if got[i] != flags[i] {
						return fmt.Sprintf("element %d is %v", i, got[i])
					}
				}
				return ""
			}})
	}
	{ // a message with a dynamic section keeps to the buffer's own backing
		got := make([]float64, bigN)
		cases = append(cases, fallbackCase{"dynamic section",
			func(w *core.Intracomm) error {
				b := mpjbuf.New(0)
				if err := b.WriteDoubles(src, 0, bigN); err != nil {
					return err
				}
				if err := b.WriteObjects([]any{"trailer"}, 0, 1); err != nil {
					return err
				}
				return w.SendBuffer(b, 1, tagData)
			},
			func(w *core.Intracomm) (*core.Request, error) { return w.Irecv(got, 0, bigN, core.DOUBLE, 0, tagData) },
			func(st *core.Status, err error) string {
				if err != nil {
					return err.Error()
				}
				if st.Count() != bigN || !same(got, src) {
					return fmt.Sprintf("count %d or data wrong", st.Count())
				}
				return ""
			}})
	}
	{ // ANY_SOURCE / ANY_TAG (dual-posted into both inner devices on hybriddev)
		got := make([]float64, bigN)
		cases = append(cases, fallbackCase{"wildcard receive", sendAll,
			func(w *core.Intracomm) (*core.Request, error) {
				return w.Irecv(got, 0, bigN, core.DOUBLE, core.AnySource, core.AnyTag)
			},
			func(st *core.Status, err error) string {
				if err != nil {
					return err.Error()
				}
				if st.Source != 0 || st.Tag != tagData || st.Count() != bigN || !same(got, src) {
					return fmt.Sprintf("status %+v or data wrong", *st)
				}
				return ""
			}})
	}
	{ // receive into buf[off:]
		const off = 1234
		got := filled(off+bigN+5, -7)
		cases = append(cases, fallbackCase{"non-zero receive offset", sendAll,
			func(w *core.Intracomm) (*core.Request, error) {
				return w.Irecv(got, off, bigN, core.DOUBLE, 0, tagData)
			},
			func(st *core.Status, err error) string {
				if err != nil {
					return err.Error()
				}
				if !all(-7, got[:off])() || !same(got[off:], src) || !all(-7, got[off+bigN:])() {
					return "data misplaced around the offset"
				}
				return ""
			}})
	}
	return cases
}

func filled(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// testLandingFallback runs the table twice: receive posted before the
// send starts, and after.
func testLandingFallback(t *testing.T, run JobRunner) {
	for _, early := range []bool{true, false} {
		run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
			w := attach(t, d, pids, rank)
			if w == nil {
				return
			}
			// Both ranks build the table; each uses its own half of a case.
			for _, c := range fallbackCases() {
				exchange(t, w, early,
					func() error { return c.send(w) },
					func() (*core.Request, error) { return c.post(w) },
					func(st *core.Status, err error) {
						if msg := c.check(st, err); msg != "" {
							t.Errorf("%s (receive posted early=%v): %s", c.name, early, msg)
						}
					})
				// Keep the cases apart: a failed receive must not leave the
				// next case's sender ahead of its receiver.
				if err := w.Barrier(); err != nil {
					t.Errorf("barrier: %v", err)
					return
				}
			}
		})
	}
}

// testCopyCount counts, not times: the payload bytes mpjbuf moves for a
// 1 MiB DOUBLE Send into an already-posted Recv.
func testCopyCount(t *testing.T, run JobRunner, want int) {
	var copied atomic.Int64
	// The probe sees bulk copies only, so the few-byte hand-shake around
	// the measured transfer does not count.
	mpjbuf.SetProbe(&mpjbuf.Probe{Copied: func(n int) { copied.Add(int64(n)) }})
	defer mpjbuf.SetProbe(nil)
	src := pattern(bigN, 9)
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		w := attach(t, d, pids, rank)
		if w == nil {
			return
		}
		got := make([]float64, bigN)
		exchange(t, w, true,
			func() error { return w.Send(src, 0, bigN, core.DOUBLE, 1, tagData) },
			func() (*core.Request, error) { return w.Irecv(got, 0, bigN, core.DOUBLE, 0, tagData) },
			func(st *core.Status, err error) {
				if err != nil || got[bigN-1] != src[bigN-1] {
					t.Errorf("transfer failed: %v", err)
				}
			})
	})
	// A copy that goes through the wire form (EncodeWire) carries the
	// 5-byte section header along; allow that much per copy.
	const size = bigN * 8
	got := copied.Load()
	if got/size != int64(want) || got%size > int64(8*want) {
		t.Errorf("a posted 1 MiB message moved %d payload bytes through mpjbuf, want %d copies of %d", got, want, size)
	} else {
		t.Logf("posted 1 MiB DOUBLE Send/Recv: %d payload bytes copied by mpjbuf (%d copies)", got, want)
	}
}

// testStoreBalance: Get − Put on mpjbuf's byte store, for the slabs a
// Buffer does not keep across Reset, is back at its starting value once
// a job's devices have finished — whatever mix of expected, unexpected,
// packed, borrowed and collective traffic the job ran.
func testStoreBalance(t *testing.T, run JobRunner) {
	var drawn atomic.Int64
	mpjbuf.SetProbe(&mpjbuf.Probe{Store: func(capacity, d int) {
		if capacity >= 64<<10 { // above what a Reset buffer retains
			drawn.Add(int64(d))
		}
	}})
	defer mpjbuf.SetProbe(nil)
	vec, _ := core.DOUBLE.Vector(32<<10, 1, 2)
	run(t, 2, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		w := attach(t, d, pids, rank)
		if w == nil {
			return
		}
		peer := 1 - rank
		for _, n := range []int{12 << 10, bigN, 4 * bigN} { // 96 KiB (eager on niodev), 1 MiB, 4 MiB
			out, in := pattern(n, n), make([]float64, n)
			for _, early := range []bool{true, false} {
				exchange(t, w, early,
					func() error { return w.Ssend(out, 0, n, core.DOUBLE, 1, tagData) },
					func() (*core.Request, error) { return w.Irecv(in, 0, n, core.DOUBLE, 0, tagData) },
					func(_ *core.Status, err error) {
						if err != nil {
							t.Errorf("%d doubles: %v", n, err)
						}
					})
			}
			// Both directions at once, nonblocking.
			rr, err := w.Irecv(in, 0, n, core.DOUBLE, peer, tagData)
			if err != nil {
				t.Error(err)
				return
			}
			sr, err := w.Isend(out, 0, n, core.DOUBLE, peer, tagData)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := core.WaitAll([]*core.Request{rr, sr}); err != nil {
				t.Error(err)
			}
		}
		// The packed path: a strided send into a strided receive.
		strided := pattern(64<<10, 3)
		if rank == 0 {
			if err := w.Send(strided, 0, 1, vec, 1, tagData); err != nil {
				t.Error(err)
			}
		} else if _, err := w.Recv(strided, 0, 1, vec, 0, tagData); err != nil {
			t.Error(err)
		}
		// Collectives: pipelined segments and a reduction.
		big := pattern(bigN, 1)
		if err := w.Bcast(big, 0, bigN, core.DOUBLE, 0); err != nil {
			t.Error(err)
		}
		sum := make([]float64, 32<<10)
		if err := w.Allreduce(big, 0, sum, 0, len(sum), core.DOUBLE, core.SUM); err != nil {
			t.Error(err)
		}
		if err := w.Barrier(); err != nil {
			t.Error(err)
		}
	})
	if n := drawn.Load(); n != 0 {
		t.Errorf("byte store: %d large slabs drawn during the job were not returned by the time it finished", n)
	}
}

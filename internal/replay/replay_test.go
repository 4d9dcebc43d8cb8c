package replay

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestOpenOffReturnsNil(t *testing.T) {
	s, err := Open(Config{})
	if err != nil || s != nil {
		t.Fatalf("Open with no dirs = (%v, %v), want (nil, nil)", s, err)
	}
	// A nil session must be fully inert.
	if s.Recording() || s.Replaying() || s.Diverged() != nil {
		t.Fatal("nil session reports active state")
	}
	if w := s.OpenWildcard("niodev", 0, -1, -1); w != nil {
		t.Fatal("nil session returned a wildcard decision")
	}
	if err := s.Agree(1, 2); err != nil {
		t.Fatalf("nil Agree: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestNextSeqDeterministicPerStream(t *testing.T) {
	dir := t.TempDir()
	open := func() *Session {
		s, err := Open(Config{RecordDir: dir, Rank: 0, Size: 2, Device: "niodev"})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := open(), open()
	// Interleave two streams differently in each session: per-stream
	// counters mean the draws still agree stream by stream.
	var sa, sb []uint64
	sa = append(sa, a.NextSeq("niodev", 1, 0, 7), a.NextSeq("niodev", 1, 0, 7), a.NextSeq("niodev", 1, 0, 9))
	sb = append(sb, b.NextSeq("niodev", 1, 0, 9), b.NextSeq("niodev", 1, 0, 7), b.NextSeq("niodev", 1, 0, 7))
	if sa[0] != sb[1] || sa[1] != sb[2] || sa[2] != sb[0] {
		t.Fatalf("per-stream draws differ: %x vs %x", sa, sb)
	}
	if sa[0] == sa[2] {
		t.Fatal("different (ctx,tag) streams drew the same seq")
	}
	if sa[0] == sa[1] {
		t.Fatal("consecutive draws on one stream must differ")
	}
}

// record runs fn against a recording session in dir and closes it.
func record(t *testing.T, dir string, fn func(*Session)) {
	t.Helper()
	s, err := Open(Config{RecordDir: dir, Rank: 0, Size: 2, Device: "niodev", ChaosSeed: "42"})
	if err != nil {
		t.Fatal(err)
	}
	fn(s)
	if err := s.Close(); err != nil {
		t.Fatalf("record close: %v", err)
	}
}

func TestWildcardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, func(s *Session) {
		w := s.OpenWildcard("niodev", 0, -1, -1)
		if w == nil || w.Enforce {
			t.Fatalf("recording OpenWildcard = %+v, want non-enforcing", w)
		}
		if err := w.Resolve(3, 5, 0xabc); err != nil {
			t.Fatal(err)
		}
	})

	s, err := Open(Config{ReplayDir: dir, Rank: 0, Size: 2, Device: "niodev", ChaosSeed: "42"})
	if err != nil {
		t.Fatal(err)
	}
	w := s.OpenWildcard("niodev", 0, -1, -1)
	if w == nil || !w.Enforce {
		t.Fatalf("replaying OpenWildcard = %+v, want enforcing", w)
	}
	if w.Src != 3 || w.Tag != 5 || w.Seq != 0xabc {
		t.Fatalf("recorded resolution = src=%d tag=%d seq=%#x", w.Src, w.Tag, w.Seq)
	}
	if err := w.Resolve(3, 5, 0xabc); err != nil {
		t.Fatalf("matching resolve: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("clean replay close: %v", err)
	}
}

func TestWildcardDivergence(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, func(s *Session) {
		w := s.OpenWildcard("niodev", 0, -1, -1)
		if err := w.Resolve(3, 5, 0xabc); err != nil {
			t.Fatal(err)
		}
	})

	s, err := Open(Config{ReplayDir: dir, Rank: 0, Size: 2, Device: "niodev", ChaosSeed: "42"})
	if err != nil {
		t.Fatal(err)
	}
	w := s.OpenWildcard("niodev", 0, -1, -1)
	rerr := w.Resolve(3, 5, 0xdead) // wrong seq
	if !errors.Is(rerr, ErrReplayDiverged) {
		t.Fatalf("mismatched resolve = %v, want ErrReplayDiverged", rerr)
	}
	var div *DivergenceError
	if !errors.As(rerr, &div) {
		t.Fatalf("error %v is not a *DivergenceError", rerr)
	}
	if div.Op != "wildcard" {
		t.Fatalf("divergence op = %q, want wildcard", div.Op)
	}
	if s.Diverged() == nil {
		t.Fatal("session not marked diverged")
	}
	if cerr := s.Close(); !errors.Is(cerr, ErrReplayDiverged) {
		t.Fatalf("Close after divergence = %v, want ErrReplayDiverged", cerr)
	}
}

func TestMetaMismatchFailsOpen(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, func(s *Session) {})
	if _, err := Open(Config{ReplayDir: dir, Rank: 0, Size: 4, Device: "niodev", ChaosSeed: "42"}); err == nil {
		t.Fatal("replay with wrong world size opened cleanly")
	}
	if _, err := Open(Config{ReplayDir: dir, Rank: 0, Size: 2, Device: "smpdev", ChaosSeed: "42"}); err == nil {
		t.Fatal("replay with wrong device opened cleanly")
	}
	if _, err := Open(Config{ReplayDir: dir, Rank: 0, Size: 2, Device: "niodev", ChaosSeed: "7"}); err == nil {
		t.Fatal("replay with wrong chaos seed opened cleanly")
	}
}

func TestAgreeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, func(s *Session) {
		if err := s.Agree(0, 0x3); err != nil {
			t.Fatal(err)
		}
		if err := s.Agree(0, 0x1); err != nil {
			t.Fatal(err)
		}
	})
	s, err := Open(Config{ReplayDir: dir, Rank: 0, Size: 2, Device: "niodev", ChaosSeed: "42"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Agree(0, 0x3); err != nil {
		t.Fatalf("matching agree: %v", err)
	}
	if err := s.Agree(0, 0x2); !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("mismatched agree = %v, want ErrReplayDiverged", err)
	}
}

func TestPopHoldAndTake(t *testing.T) {
	s, err := Open(Config{RecordDir: t.TempDir(), Rank: 0, Size: 1, Device: "smpdev"})
	if err != nil {
		t.Fatal(err)
	}
	k := PopKey{Dev: "smpdev", Op: "recv", Src: 1, Tag: 2, Ctx: 0, Seq: 9}
	if _, ok := s.TakeHeld(k); ok {
		t.Fatal("TakeHeld on empty session")
	}
	s.Hold(k, "first")
	s.Hold(k, "second")
	if v, ok := s.TakeHeld(k); !ok || v != "first" {
		t.Fatalf("TakeHeld = (%v,%v), want (first,true): equal keys must drain FIFO", v, ok)
	}
	if kk, v, ok := s.TakeAnyHeld(); !ok || kk != k || v != "second" {
		t.Fatalf("TakeAnyHeld = (%v,%v,%v)", kk, v, ok)
	}
	if s.Stalls() != 2 {
		t.Fatalf("Stalls = %d, want 2", s.Stalls())
	}
}

// TestLogBytesIdenticalAcrossInterleavings drives two recording
// sessions through the same decisions in different append orders and
// requires byte-identical logs — the property the CI replay job
// asserts end to end.
func TestLogBytesIdenticalAcrossInterleavings(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()

	record(t, dirA, func(s *Session) {
		a, b := s.OpenWildcard("niodev", 0, -1, 1), s.OpenWildcard("niodev", 0, -1, 2)
		_ = a.Resolve(1, 1, 0x1)
		_ = b.Resolve(2, 2, 0x2)
		_ = s.Agree(0, 7)
	})
	record(t, dirB, func(s *Session) {
		_ = s.Agree(0, 7)
		b, a := s.OpenWildcard("niodev", 0, -1, 2), s.OpenWildcard("niodev", 0, -1, 1)
		_ = b.Resolve(2, 2, 0x2)
		_ = a.Resolve(1, 1, 0x1)
	})
	ba, err := os.ReadFile(filepath.Join(dirA, LogName(0)))
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(filepath.Join(dirB, LogName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatalf("logs differ across interleavings:\nA:\n%s\nB:\n%s", ba, bb)
	}
}

func TestReadLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, func(s *Session) {
		w := s.OpenWildcard("smpdev", 0, -1, -1)
		_ = w.Resolve(1, 3, 0x10)
	})
	recs, err := ReadLog(filepath.Join(dir, LogName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want meta+wildcard", len(recs))
	}
	if recs[0].Kind != "meta" || recs[1].Kind != "wildcard" {
		t.Fatalf("kinds = %s,%s", recs[0].Kind, recs[1].Kind)
	}
	if recs[1].Src != 1 || recs[1].Tag != 3 || recs[1].Seq != 0x10 {
		t.Fatalf("wildcard record = %+v", recs[1])
	}
}

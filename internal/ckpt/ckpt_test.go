package ckpt_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpj/internal/ckpt"
	"mpj/internal/core"
	"mpj/internal/smpdev"
	"mpj/internal/xdev"
)

var groupCounter atomic.Int64

// runWorld starts an n-rank world over the shared-memory device and
// runs fn once per rank, each on its own goroutine.
func runWorld(t *testing.T, n int, fn func(p *core.Process, w *core.Intracomm)) {
	t.Helper()
	group := fmt.Sprintf("ckpt-test-%d", groupCounter.Add(1))
	procs := make([]*core.Process, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			procs[rank], errs[rank] = core.Init(smpdev.New(), xdev.Config{Rank: rank, Size: n, Group: group})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d init: %v", i, err)
		}
	}
	defer func() {
		for _, p := range procs {
			p.Finalize()
		}
	}()
	var jobWG sync.WaitGroup
	for i := 0; i < n; i++ {
		jobWG.Add(1)
		go func(rank int) {
			defer jobWG.Done()
			fn(procs[rank], procs[rank].World())
		}(i)
	}
	done := make(chan struct{})
	go func() {
		jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("world deadlocked")
	}
}

// rankState builds deterministic per-rank test state.
func rankState(rank int) []byte {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(rank*31 + i)
	}
	return data
}

// TestCheckpointRestoreIdentity checkpoints a world and restores it on
// the same communicator: every rank gets exactly its own snapshot
// back.
func TestCheckpointRestoreIdentity(t *testing.T) {
	dir := t.TempDir()
	const n = 4
	runWorld(t, n, func(p *core.Process, w *core.Intracomm) {
		err := ckpt.Checkpoint(w, dir, "step-10",
			ckpt.Region{Name: "grid", Data: rankState(w.Rank())},
			ckpt.Region{Name: "iter", Data: []byte{10}},
		)
		if err != nil {
			t.Errorf("rank %d: Checkpoint: %v", w.Rank(), err)
			return
		}
		snaps, err := ckpt.Restore(dir, "step-10", w.Group(), w)
		if err != nil {
			t.Errorf("rank %d: Restore: %v", w.Rank(), err)
			return
		}
		if len(snaps) != 1 {
			t.Errorf("rank %d: restored %d snapshots, want 1", w.Rank(), len(snaps))
			return
		}
		snap := snaps[w.Rank()]
		if snap == nil {
			t.Errorf("rank %d: own snapshot missing", w.Rank())
			return
		}
		if got, want := snap.Regions["grid"], rankState(w.Rank()); string(got) != string(want) {
			t.Errorf("rank %d: grid region mismatch", w.Rank())
		}
		if got := snap.Regions["iter"]; len(got) != 1 || got[0] != 10 {
			t.Errorf("rank %d: iter region = %v", w.Rank(), got)
		}
	})
}

// TestRestoreAfterShrink is the recovery flow: checkpoint with 4
// ranks, rank 2 dies, the survivors shrink and restore — each
// survivor recovers its own old state by identity, and the dead
// rank's snapshot is dealt to old-rank-2 mod 3 = new rank 2.
func TestRestoreAfterShrink(t *testing.T) {
	dir := t.TempDir()
	const n = 4
	const victim = 2
	// The victim may finalize while a slower survivor is still inside
	// Checkpoint's exit barrier, so no survivor revokes before every
	// survivor has returned from Checkpoint.
	var checkpointed sync.WaitGroup
	checkpointed.Add(n - 1)
	runWorld(t, n, func(p *core.Process, w *core.Intracomm) {
		err := ckpt.Checkpoint(w, dir, "pre-fail", ckpt.Region{Name: "grid", Data: rankState(w.Rank())})
		if w.Rank() != victim {
			checkpointed.Done()
		}
		if err != nil {
			t.Errorf("rank %d: Checkpoint: %v", w.Rank(), err)
			return
		}
		if w.Rank() == victim {
			p.Finalize()
			return
		}
		checkpointed.Wait()
		pid, _ := w.Group().PID(victim)
		ck := p.Device().(xdev.PeerChecker)
		for deadline := time.Now().Add(5 * time.Second); ck.PeerErr(pid) == nil; {
			if time.Now().After(deadline) {
				t.Errorf("rank %d: victim death never detected", w.Rank())
				return
			}
			time.Sleep(time.Millisecond)
		}
		if err := w.Revoke(); err != nil {
			t.Errorf("rank %d: Revoke: %v", w.Rank(), err)
			return
		}
		nw, err := w.Shrink()
		if err != nil {
			t.Errorf("rank %d: Shrink: %v", w.Rank(), err)
			return
		}
		id, err := ckpt.Latest(dir)
		if err != nil || id != "pre-fail" {
			t.Errorf("rank %d: Latest = %q, %v", w.Rank(), id, err)
			return
		}
		snaps, err := ckpt.Restore(dir, id, w.Group(), nw)
		if err != nil {
			t.Errorf("rank %d: Restore: %v", w.Rank(), err)
			return
		}
		// Own old state must be present under the OLD rank number.
		own := snaps[w.Rank()]
		if own == nil {
			t.Errorf("old rank %d (new %d): own snapshot missing, got %d snaps", w.Rank(), nw.Rank(), len(snaps))
			return
		}
		if string(own.Regions["grid"]) != string(rankState(w.Rank())) {
			t.Errorf("old rank %d: restored state mismatch", w.Rank())
		}
		// The orphan (old rank 2) goes to old-rank-2 mod 3 = new rank 2,
		// which is old rank 3.
		if orphanOwner := victim % (n - 1); nw.Rank() == orphanOwner {
			orphan := snaps[victim]
			if orphan == nil {
				t.Errorf("new rank %d: orphan snapshot of old rank %d missing", nw.Rank(), victim)
				return
			}
			if string(orphan.Regions["grid"]) != string(rankState(victim)) {
				t.Errorf("orphan snapshot state mismatch")
			}
		} else if len(snaps) != 1 {
			t.Errorf("new rank %d: got %d snapshots, want 1", nw.Rank(), len(snaps))
		}
	})
}

// TestRestoreRejectsCorruption flips one payload byte and expects the
// CRC check to refuse the snapshot.
func TestRestoreRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	runWorld(t, 1, func(p *core.Process, w *core.Intracomm) {
		if err := ckpt.Checkpoint(w, dir, "c1", ckpt.Region{Name: "x", Data: rankState(0)}); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		path := filepath.Join(dir, "c1", "rank-0.ckpt")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = ckpt.Restore(dir, "c1", w.Group(), w)
		if err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("Restore of corrupt snapshot: err = %v, want CRC mismatch", err)
		}
	})
}

// TestLatestIgnoresUnpublished checks that a checkpoint directory
// without a manifest — a checkpoint interrupted before rank 0
// published it — is not offered for restart.
func TestLatestIgnoresUnpublished(t *testing.T) {
	dir := t.TempDir()
	runWorld(t, 2, func(p *core.Process, w *core.Intracomm) {
		if err := ckpt.Checkpoint(w, dir, "good", ckpt.Region{Name: "x", Data: []byte{1}}); err != nil {
			t.Errorf("Checkpoint: %v", err)
			return
		}
		if w.Rank() == 0 {
			// Fake a torn checkpoint: snapshot files but no manifest.
			if err := os.MkdirAll(filepath.Join(dir, "torn"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "torn", "rank-0.ckpt"), []byte("junk"), 0o644); err != nil {
				t.Fatal(err)
			}
			id, err := ckpt.Latest(dir)
			if err != nil {
				t.Errorf("Latest: %v", err)
			}
			if id != "good" {
				t.Errorf("Latest = %q, want %q", id, "good")
			}
		}
	})
}

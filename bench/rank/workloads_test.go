package rank

import "testing"

// The output checks are only worth having if they fail on the faults
// they exist for: a stale buffer, a truncated message, a foreign seed.
func TestPayloadVerifyCatchesFaults(t *testing.T) {
	for name, pl := range map[string]payload{
		"bytes":   newBytePayload(1, 64),
		"doubles": newDoublePayload(1, 1<<10),
	} {
		n := pl.count()
		buf := pl.newBuf()
		pl.stamp(buf, 41, flagStop)
		if flags, ok := pl.verify(buf, n, 41); !ok || flags != flagStop {
			t.Errorf("%s: a good message fails verify (flags %d, ok %v)", name, flags, ok)
		}
		if _, ok := pl.verify(buf, n, 42); ok {
			t.Errorf("%s: a stale buffer (iteration 41 for 42) passes", name)
		}
		if _, ok := pl.verify(buf, n-1, 41); ok {
			t.Errorf("%s: a short message passes", name)
		}
		switch b := buf.(type) {
		case []byte:
			b[n-1] ^= 1
		case []float64:
			b[n-1]++
		}
		if _, ok := pl.verify(buf, n, 41); ok {
			t.Errorf("%s: a corrupted last element passes", name)
		}
	}
	a, b := newBytePayload(1, 8), newBytePayload(2, 8)
	buf := a.newBuf()
	a.stamp(buf, 3, 0)
	if _, ok := b.verify(buf, 8, 3); ok {
		t.Error("a message stamped under another seed passes")
	}
	if got := a.iteration(buf.([]byte)); got != 3 {
		t.Errorf("iteration = %d, want 3", got)
	}
}

// The drain messages must fill exactly the receives rank 0 still has
// posted, or a phase ends with something pending.
func TestFanDrainFillsPostedReceives(t *testing.T) {
	for workers := 1; workers <= 7; workers++ {
		sum := 0
		for w := 1; w <= workers; w++ {
			sum += fanDrain(w, workers)
		}
		if sum != fanPosted {
			t.Errorf("%d workers drain %d messages, want %d", workers, sum, fanPosted)
		}
	}
}

func TestWorkloadTable(t *testing.T) {
	seen := make(map[string]bool)
	for _, w := range Workloads {
		if seen[w.Name] || w.phase == nil || w.NP < 2 || w.OpBytes < 1 || len(w.Why) > 200 {
			t.Errorf("workload %+v is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
		if got, ok := Lookup(w.Name); !ok || got.Name != w.Name {
			t.Errorf("Lookup(%q) failed", w.Name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found a workload that does not exist")
	}
}

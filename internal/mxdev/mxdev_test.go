package mxdev

import (
	"fmt"
	"sync/atomic"
	"testing"

	"mpj/internal/devtest"
	"mpj/internal/xdev"
)

var groupCounter atomic.Int64

var runner = devtest.Runner(func() xdev.Device { return New() },
	func(t *testing.T, n int) func(int) xdev.Config {
		group := fmt.Sprintf("mxdev-test-%d", groupCounter.Add(1))
		return func(rank int) xdev.Config { return xdev.Config{Rank: rank, Size: n, Group: group} }
	})

func TestConformance(t *testing.T) {
	devtest.RunConformance(t, runner, devtest.Options{HasPeek: true, RendezvousAt: DefaultEagerLimit})
}

func TestMatchInfoRoundTrip(t *testing.T) {
	cases := []struct {
		ctx int32
		tag int32
		src uint32
	}{
		{0, 0, 0}, {1, 5, 2}, {65535, 1 << 30, 65535}, {42, -1 & 0x7fffffff, 7},
	}
	for _, c := range cases {
		info := matchInfo(c.ctx, c.tag, c.src)
		if got := tagOf(info); got != int(c.tag) {
			t.Errorf("tagOf(matchInfo(%d,%d,%d)) = %d", c.ctx, c.tag, c.src, got)
		}
	}
}

func TestMatchPatternWildcards(t *testing.T) {
	// Exact pattern must match only its own info.
	info, mask := matchPattern(3, 9, xdev.ProcessID{UUID: 2})
	msg := matchInfo(3, 9, 2)
	if msg&mask != info&mask {
		t.Fatal("exact pattern does not match its own message")
	}
	other := matchInfo(3, 9, 1)
	if other&mask == info&mask {
		t.Fatal("exact pattern matched a different source")
	}
	// Wildcard source.
	info, mask = matchPattern(3, 9, xdev.AnySource)
	if other&mask != info&mask {
		t.Fatal("ANY_SOURCE pattern rejected a matching tag")
	}
	wrongTag := matchInfo(3, 8, 1)
	if wrongTag&mask == info&mask {
		t.Fatal("ANY_SOURCE pattern matched wrong tag")
	}
	// Wildcard tag and source: only the context must match.
	info, mask = matchPattern(3, xdev.AnyTag, xdev.AnySource)
	if wrongTag&mask != info&mask {
		t.Fatal("full-wildcard pattern rejected message in same context")
	}
	otherCtx := matchInfo(4, 8, 1)
	if otherCtx&mask == info&mask {
		t.Fatal("wildcard pattern crossed contexts")
	}
}

func TestDeviceRegistry(t *testing.T) {
	d, err := xdev.NewInstance(DeviceName)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*Device); !ok {
		t.Fatalf("registry returned %T", d)
	}
}

func TestInitValidation(t *testing.T) {
	for i, cfg := range []xdev.Config{
		{Rank: 0, Size: 0},
		{Rank: -1, Size: 2},
		{Rank: 5, Size: 2},
	} {
		d := New()
		if _, err := d.Init(cfg); err == nil {
			t.Errorf("case %d accepted", i)
			d.Finish()
		}
	}
}

func TestZeroOverheads(t *testing.T) {
	d := New()
	if d.SendOverhead() != 0 || d.RecvOverhead() != 0 {
		t.Fatal("mxdev should add no wire overhead (envelope is out of band)")
	}
}

func TestFinishIdempotent(t *testing.T) {
	runner(t, 1, func(d xdev.Device, rank int, pids []xdev.ProcessID) {
		// Finish happens in runner cleanup; call once more here first.
		if err := d.Finish(); err != nil {
			t.Error(err)
		}
		if err := d.Finish(); err != nil {
			t.Error(err)
		}
	})
}

// TestChaosConformance runs the shared failure-semantics suite:
// blocked calls must fail typed, not hang, under Finish and peer death.
func TestChaosConformance(t *testing.T) {
	devtest.RunChaos(t, runner, devtest.ChaosOptions{HasPeek: true})
}

// TestRecoveryConformance runs the survivor-continues recovery suite:
// kill a rank mid-operation, then Revoke/Shrink/Agree/Restore.
func TestRecoveryConformance(t *testing.T) {
	devtest.RunRecovery(t, runner)
}

// TestUserMemoryConformance: the simulated fabric gathers the segments
// itself, so mpjbuf's one copy is the load into the landing zone.
func TestUserMemoryConformance(t *testing.T) {
	devtest.RunUserMemory(t, runner, devtest.UserMemOptions{PostedCopies: 1})
}

package smpdev

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
		group := fmt.Sprintf("smpdev-test-%d", groupCounter.Add(1))
		return func(rank int) xdev.Config { return xdev.Config{Rank: rank, Size: n, Group: group} }
	})

func TestConformance(t *testing.T) {
	devtest.RunConformance(t, runner, devtest.Options{HasPeek: true})
}

func TestOpsAfterFinish(t *testing.T) {
	devtest.RunOpsAfterFinish(t, runner, func() xdev.Device { return New() })
}

func TestGroupSizeMismatch(t *testing.T) {
	group := fmt.Sprintf("smpdev-mismatch-%d", groupCounter.Add(1))
	a := New()
	if _, err := a.Init(xdev.Config{Rank: 0, Size: 2, Group: group}); err != nil {
		t.Fatal(err)
	}
	defer a.Finish()
	b := New()
	if _, err := b.Init(xdev.Config{Rank: 0, Size: 3, Group: group}); err == nil {
		t.Fatal("size mismatch accepted")
		b.Finish()
	}
}

func TestGroupReleasedAfterAllFinish(t *testing.T) {
	group := fmt.Sprintf("smpdev-release-%d", groupCounter.Add(1))
	a, b := New(), New()
	if _, err := a.Init(xdev.Config{Rank: 0, Size: 2, Group: group}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Init(xdev.Config{Rank: 1, Size: 2, Group: group}); err != nil {
		t.Fatal(err)
	}
	a.Finish()
	b.Finish()
	// The name must be reusable with a different size now.
	c := New()
	if _, err := c.Init(xdev.Config{Rank: 0, Size: 1, Group: group}); err != nil {
		t.Fatalf("group not released: %v", err)
	}
	c.Finish()
}

func TestSendAfterFinish(t *testing.T) {
	group := fmt.Sprintf("smpdev-closed-%d", groupCounter.Add(1))
	d := New()
	if _, err := d.Init(xdev.Config{Rank: 0, Size: 1, Group: group}); err != nil {
		t.Fatal(err)
	}
	d.Finish()
	if _, err := d.ISend(nil, xdev.ProcessID{UUID: 0}, 0, 0); err == nil {
		t.Fatal("send accepted after Finish")
	}
	if _, err := d.IRecv(nil, xdev.ProcessID{UUID: 0}, 0, 0); err == nil {
		t.Fatal("recv accepted after Finish")
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

// TestUserMemoryConformance: a posted receive takes the message in one
// copy, sender's array to receiver's.
func TestUserMemoryConformance(t *testing.T) {
	devtest.RunUserMemory(t, runner, devtest.UserMemOptions{PostedCopies: 1, StoreBalance: true})
}

// TestRecycledRequestsNeverSeenLate runs the recycled-request check:
// blocking calls beside a WaitAny loop on the same device.
func TestRecycledRequestsNeverSeenLate(t *testing.T) {
	devtest.RunRecycle(t, runner)
}

package devtest_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"mpj/internal/devtest"
	"mpj/internal/smpdev"
	"mpj/internal/xdev"
)

// The suites are exercised from each device's own tests; here the
// newest one runs once against the reference device, so that
// `go test -race ./internal/devtest` checks the suite's own goroutines
// and probes.

var jobs atomic.Int64

func TestUserMemorySuiteOnReferenceDevice(t *testing.T) {
	run := devtest.Runner(func() xdev.Device { return smpdev.New() },
		func(t *testing.T, n int) func(int) xdev.Config {
			group := fmt.Sprintf("devtest-self-%d", jobs.Add(1))
			return func(rank int) xdev.Config { return xdev.Config{Rank: rank, Size: n, Group: group} }
		})
	devtest.RunUserMemory(t, run, devtest.UserMemOptions{PostedCopies: 1, StoreBalance: true})
}

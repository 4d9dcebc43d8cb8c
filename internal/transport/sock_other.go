//go:build !linux

package transport

import "errors"

// setRcvLowat: elsewhere the mark either does not exist or does not
// reach the poller; Expect is then only advice nobody takes.
func setRcvLowat(fd uintptr, n int) error { return errors.ErrUnsupported }

// canPoll: elsewhere a hot connection's reader parks like any other.
const canPoll = false

func readNow(fd uintptr, p []byte) (int, error) { return 0, errors.ErrUnsupported }

//go:build !linux

package transport

import "errors"

// setRcvLowat: elsewhere the mark either does not exist or does not
// reach the poller; Expect is then only advice nobody takes.
func setRcvLowat(fd uintptr, n int) error { return errors.ErrUnsupported }

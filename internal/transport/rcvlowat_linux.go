package transport

import "syscall"

// setRcvLowat sets SO_RCVLOWAT. Linux honours it in poll/epoll (what
// the Go runtime's network poller waits on), raises the receive buffer
// to hold the mark, and wakes the reader regardless once the receive
// window closes or the peer is done, so a mark can delay a reader but
// not strand it.
func setRcvLowat(fd uintptr, n int) error {
	return syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVLOWAT, n)
}

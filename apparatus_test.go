package mpj

// The apparatus devices are linked into the root test binary only, so
// the every-device, replay and ping-pong matrices still cover them
// while the product package stays on niodev, smpdev and hybrid.
import (
	_ "mpj/internal/ibisdev"
	_ "mpj/internal/mxdev"
)

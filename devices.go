package mpj

// Link the product devices into the registry so Options.Device and
// MPJ_DEVICE can select them by name: niodev (TCP), smpdev (shared
// memory) and hybrid (smpdev for node-local peers, niodev for remote
// ones). The paper-comparison devices, mxdev and ibisdev, are
// apparatus: the tests and the paper-figure commands link them, the
// product does not.
import (
	_ "mpj/internal/hybriddev"
	_ "mpj/internal/niodev"
	_ "mpj/internal/smpdev"

	"mpj/internal/xdev"
)

// Devices lists the available communication device names.
func Devices() []string { return xdev.Names() }

//go:build race

package mpjdev

// Under the race detector sync.Pool deliberately drops items, so pooled
// paths allocate; allocation pins only hold in a normal build.
const raceEnabled = true

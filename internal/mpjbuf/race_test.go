//go:build race

package mpjbuf

// Under the race detector sync.Pool deliberately drops items, so the
// store's reuse guarantees only hold in a normal build.
const raceEnabled = true

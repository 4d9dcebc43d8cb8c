//go:build race

package smpdev

// Under the race detector sync.Pool deliberately drops items to widen
// interleavings, so pooled paths allocate; alloc-count assertions only
// hold in a normal build.
const raceEnabled = true

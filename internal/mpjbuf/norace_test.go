//go:build !race

package mpjbuf

const raceEnabled = false

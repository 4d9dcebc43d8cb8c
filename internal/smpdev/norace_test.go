//go:build !race

package smpdev

const raceEnabled = false

//go:build !race

package mpjdev

const raceEnabled = false

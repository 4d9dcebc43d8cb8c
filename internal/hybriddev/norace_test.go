//go:build !race

package hybriddev

const raceEnabled = false

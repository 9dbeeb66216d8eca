//go:build !race

package machine

const raceEnabled = false

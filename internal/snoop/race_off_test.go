//go:build !race

package snoop

const raceEnabled = false

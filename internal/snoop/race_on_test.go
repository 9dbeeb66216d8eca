//go:build race

package snoop

// raceEnabled reports a -race build, where sync.Pool drops a share of
// its items on purpose, so steady-state allocation counts do not hold.
const raceEnabled = true

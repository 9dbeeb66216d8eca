// Package sim stands in for internal/sim: the event engine runs every
// event on the caller's goroutine, so detlint reports a goroutine here
// like in any other deterministic package.
package sim

func launches(done chan struct{}) {
	go func() { close(done) }() // want `goroutine launched in deterministic package sim: only runner and serve may create goroutines`
}

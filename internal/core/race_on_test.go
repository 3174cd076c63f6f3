//go:build race

package core

// raceEnabled reports that the tests run under the race detector, where
// sync.Pool deliberately drops some of what it is given.
const raceEnabled = true

//go:build !race

package commands

// poison is a no-op outside the race build (poison_race.go).
func poison([]byte) {}

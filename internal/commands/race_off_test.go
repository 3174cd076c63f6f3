//go:build !race

package commands

const raceEnabled = false

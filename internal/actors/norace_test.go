//go:build !race

package actors

const raceEnabled = false

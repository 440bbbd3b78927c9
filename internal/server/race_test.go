//go:build race

package server

// raceEnabled reports a -race build: sync.Pool drops items at random
// there, so allocation counts mean nothing, and the detector multiplies
// the time and memory a test takes.
const raceEnabled = true

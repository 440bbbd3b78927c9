//go:build race

package server

// raceEnabled reports a -race build: sync.Pool drops items at random
// there, so allocation counts mean nothing, and the detector multiplies
// the time and memory a test takes.
const raceEnabled = true

// deadlineOverrun bounds how long a deadline-bound request may take, as a
// multiple of its deadline. The race detector slows Cooper's elimination
// several times over, and with it the stretch between two context polls.
const deadlineOverrun = 12

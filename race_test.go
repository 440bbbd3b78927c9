//go:build race

package finq

// deadlineOverrun bounds how long a deadline-bound test may run, as a
// multiple of its deadline. The race detector slows Cooper's elimination
// several times over, and with it the stretch between two context polls.
const deadlineOverrun = 12

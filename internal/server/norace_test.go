//go:build !race

package server

const raceEnabled = false

// deadlineOverrun bounds how long a deadline-bound request may take, as a
// multiple of its deadline.
const deadlineOverrun = 4

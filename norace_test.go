//go:build !race

package finq

// deadlineOverrun bounds how long a deadline-bound test may run, as a
// multiple of its deadline.
const deadlineOverrun = 4

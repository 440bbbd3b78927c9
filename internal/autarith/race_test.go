//go:build race

package autarith_test

// raceEnabled reports a -race build, where sync.Pool drops items at
// random, so allocation counts mean nothing.
const raceEnabled = true

//go:build !race

package autarith_test

const raceEnabled = false

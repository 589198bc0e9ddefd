//go:build race

package efsm_test

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random and so allocation counts mean nothing.
const raceEnabled = true

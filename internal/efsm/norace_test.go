//go:build !race

package efsm_test

const raceEnabled = false

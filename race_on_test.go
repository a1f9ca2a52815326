//go:build race

package hyrisenv_test

const raceEnabled = true

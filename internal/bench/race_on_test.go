//go:build race

package bench

const raceDetector = true

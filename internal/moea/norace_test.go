//go:build !race

package moea

// raceDetector reports a race-detector build (see race_test.go).
const raceDetector = false

//go:build race

package moea

// raceDetector reports a race-detector build. Under it sync.Pool drops
// a random share of its Puts, so allocation counts of code that pools
// (SPEA-2's density heaps) vary from run to run.
const raceDetector = true

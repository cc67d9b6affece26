//go:build race

package pattern

// raceEnabled mirrors the test binary's -race flag: the differential test
// shrinks its shape sweep under the detector, which slows this
// single-goroutine package about tenfold without anything to find.
const raceEnabled = true

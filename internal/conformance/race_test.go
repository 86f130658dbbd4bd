//go:build race

package conformance

func init() { raceDetector = true }

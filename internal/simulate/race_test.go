//go:build race

package simulate

func init() { raceDetector = true }

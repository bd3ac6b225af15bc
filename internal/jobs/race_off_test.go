//go:build !race

package jobs

const raceDetectorEnabled = false

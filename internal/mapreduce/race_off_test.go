//go:build !race

package mapreduce

const raceDetectorEnabled = false

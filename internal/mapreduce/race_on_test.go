//go:build race

package mapreduce

// raceDetectorEnabled reports whether the race detector is compiled in;
// allocation-budget assertions are skipped under it because its
// instrumentation allocates on paths that are allocation-free otherwise.
const raceDetectorEnabled = true

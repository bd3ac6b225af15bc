//go:build race

package core

// raceDetectorEnabled reports whether the race detector is compiled in;
// allocation-budget assertions are skipped under it because its
// instrumentation allocates on paths that are allocation-free otherwise.
const raceDetectorEnabled = true

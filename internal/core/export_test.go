package core

import "time"

// ColumnLoops exposes columnLoops to the package's external tests.
var ColumnLoops = columnLoops

// SetJoinBackoff sets w's first registration backoff; call it before Run.
func SetJoinBackoff(w *WorkerHost, d time.Duration) { w.joinBase = d }

package core

import "time"

// TypedLoops exposes typedLoops to the package's external tests.
var TypedLoops = typedLoops

// FileSums and SameFiles expose fileSums and sameFiles to them.
var FileSums, SameFiles = fileSums, sameFiles

// SetJoinBackoff sets w's first registration backoff; call it before Run.
func SetJoinBackoff(w *WorkerHost, d time.Duration) { w.joinBase = d }

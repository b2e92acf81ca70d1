//go:build !unix

package profile

// processCPUNanos has no portable implementation off unix; window CPU
// deltas read as 0 there (the pprof samples still carry CPU time).
func processCPUNanos() int64 { return 0 }

//go:build unix

package profile

import "syscall"

// processCPUNanos returns the process's cumulative user+system CPU time.
// It is monotonic, so deltas across a profile window measure the CPU the
// process spent in it. Returns 0 when the platform refuses getrusage —
// callers treat 0-before/0-after as "no CPU reading available".
func processCPUNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

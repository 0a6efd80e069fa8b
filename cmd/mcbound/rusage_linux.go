package main

import (
	"fmt"
	"syscall"
)

// peakRSS is the largest resident set of this process so far, as
// getrusage(2) reports it (in KiB on Linux).
func peakRSS() string {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%d MB", ru.Maxrss/1024)
}

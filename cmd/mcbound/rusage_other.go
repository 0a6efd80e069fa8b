//go:build !linux

package main

// peakRSS is not measured off Linux, where getrusage's units differ.
func peakRSS() string { return "unknown" }

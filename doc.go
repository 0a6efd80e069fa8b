// Package mcbound is a from-scratch Go reproduction of "MCBound: An
// Online Framework to Characterize and Classify Memory/Compute-bound HPC
// Jobs" (Antici et al., SC 2024).
//
// The root package only anchors the module-level benchmarks in
// bench_test.go; the implementation lives under internal/ (one package
// per subsystem, see DESIGN.md) and the runnable entry points under
// cmd/ (examples/quickstart is the one worked example).
package mcbound

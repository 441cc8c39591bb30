//go:build !linux

package main

// Process CPU time and the kernel release are read through Linux
// system calls; elsewhere cpu_s reads 0 and the stamp omits the kernel.
func cpuSeconds() float64   { return 0 }
func kernelRelease() string { return "" }

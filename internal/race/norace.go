//go:build !race

// Package race reports whether the binary was built with the race
// detector. Allocation budgets (testing.AllocsPerRun) measure the
// detector's instrumentation as well as the code, so a test skips its
// budget comparison when Enabled is true and keeps every correctness
// check around it.
package race

// Enabled is true under go test -race.
const Enabled = false

//go:build race

package race

// Enabled is true under go test -race.
const Enabled = true

package engine

import "testing"

// CheckLayouts is checkLayouts for the tests of this package that must live
// outside it (TestSlotLayoutTPCD imports internal/tpcd, which imports this
// package).
func CheckLayouts(t *testing.T, s *Session, stmts []string) { checkLayouts(t, s, stmts) }

// Package lib is the scan's fixture: each declaration is, or is not,
// reached from main.
package lib

// Used is reached from main.
func Used() int { return helper() }

func helper() int { return 2 }

// OnlyTested is called only by lib_test.go.
func OnlyTested() int { return 1 }

func unused() {}

// TestOnly is used only by lib_test.go.
type TestOnly struct{}

// Value is reached from main; its String method implements fmt.Stringer
// and is reached through it although nothing calls it by name.
type Value int

func (v Value) String() string { return "value" }

// Held is on the fixture's hold list.
func Held() {}

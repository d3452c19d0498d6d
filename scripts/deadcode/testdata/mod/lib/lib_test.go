package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	var _ TestOnly
	if OnlyTested() != 1 {
		t.Fatal("OnlyTested")
	}
}

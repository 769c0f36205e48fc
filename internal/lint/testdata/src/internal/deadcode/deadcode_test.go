package deadcode

import "testing"

// A test's calls reach nothing: DeadExported and Perimeter stay dead.
func TestDead(t *testing.T) {
	if DeadExported() != 2 || (Square{1}).Perimeter() != 4 || deadUnexported(2) != 0 {
		t.Fatal("bad")
	}
}

// Package deadcode exercises the dead-code rule. It sits under an internal/
// path element, so this module alone can call it; corpus/deaduser is its one
// non-test importer, and deadcode_test.go's calls count for nothing.
package deadcode

import (
	"fmt"
	"sort"
)

// Used is deaduser's entry point.
func Used() int { return helper() + apply(double) + kernel() }

func helper() int { return 1 }

// double is reached as a function value.
func double(x int) int { return 2 * x }

func apply(f func(int) int) int { return f(1) }

func DeadExported() int { return 2 } // want "dead-code: deadcode.DeadExported is reached from no non-test file"

// deadUnexported calls itself, which does not count.
func deadUnexported(n int) int { // want "dead-code: deadcode.deadUnexported is reached from no non-test file"
	if n == 0 {
		return 0
	}
	return deadUnexported(n - 1)
}

// Shape's Area is called through the interface by deaduser; Perimeter only
// by the tests, so it goes, and with it its one implementation.
type Shape interface {
	Area() float64
	Perimeter() float64 // want "dead-code: deadcode.\(Shape\).Perimeter is reached from no non-test file"
}

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) Perimeter() float64 { return 4 * s.Side } // want "dead-code: deadcode.\(Square\).Perimeter is reached from no non-test file"

// String and MarshalJSON are what fmt and encoding/json call through any.
func (s Square) String() string { return fmt.Sprintf("square(%g)", s.Side) }

func (s Square) MarshalJSON() ([]byte, error) { return []byte(fmt.Sprint(s.Side)), nil }

// byLen's methods are called by sort, to whose Interface Sort converts it.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Sort orders xs by length.
func Sort(xs []string) { sort.Sort(byLen(xs)) }

// Table is re-exported by deaduser as an alias: its exported methods are
// that package's API, its unexported ones are not.
type Table struct{ rows []int }

func (t *Table) Rows() int { return len(t.rows) }

func (t *Table) grow() { t.rows = append(t.rows, 0) } // want "dead-code: deadcode.\(\*Table\).grow is reached from no non-test file"

// Counter reaches deaduser's callers through an exported signature.
type Counter struct{ n int }

func (c *Counter) Value() int { return c.n }

// Package deaduser is internal/deadcode's one non-test importer, outside
// internal/: what it calls, aliases and hands out keeps deadcode's functions
// alive.
package deaduser

import (
	"encoding/json"
	"fmt"

	"corpus/internal/deadcode"
)

// Table re-exports deadcode.Table, and with it Table.Rows.
type Table = deadcode.Table

// NewCounter hands out a *deadcode.Counter, and with it Counter.Value.
func NewCounter() *deadcode.Counter { return new(deadcode.Counter) }

// Run calls deadcode's entry point and dispatches Area through Shape.
func Run() (string, error) {
	var s deadcode.Shape = deadcode.Square{Side: 2}
	deadcode.Sort([]string{"bb", "a"})
	b, err := json.Marshal(s)
	return fmt.Sprint(deadcode.Used(), s.Area(), s, string(b)), err
}

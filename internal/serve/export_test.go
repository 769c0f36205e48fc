package serve

import "time"

// SetSuggestWait changes the bound on a parked suggest, for the tests that
// wait it out, and returns the call that puts it back. Not for use while a
// request is in flight.
func (s *Server) SetSuggestWait(d time.Duration) (restore func()) {
	old := s.suggestWait
	s.suggestWait = d
	return func() { s.suggestWait = old }
}

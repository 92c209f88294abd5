package serve

// HeldSessions reports the sessions out of the server's pool: open, or
// ended but still reached by their input or a Deliver.
func (s *Server) HeldSessions() int64 { return s.held.Load() }

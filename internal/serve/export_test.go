package serve

// State reports a request's final lifecycle state as a string:
// "pending", "queued", "rejected" or "done".
func (s *Sched) State(id int) string {
	switch s.state[id] {
	case stQueued:
		return "queued"
	case stRejected:
		return "rejected"
	case stDone:
		return "done"
	default:
		return "pending"
	}
}

// Offset reports tenant t's global id offset.
func (s *Sched) Offset(t int) int { return s.off[t] }

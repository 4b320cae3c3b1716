package ocbcast

// HeldPrivateBytes reports the private-memory pages s's chip holds, each
// distinct page once.
func HeldPrivateBytes(s *System) int { return s.chip.HeldBytes() }

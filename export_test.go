package ocbcast

import "repro/internal/mem"

// HeldPrivateBytes reports the private-memory pages s's chip holds, each
// distinct page once.
func HeldPrivateBytes(s *System) int { return s.chip.HeldBytes() }

// PageStats reports s's chip's private-memory page-write counts.
func PageStats(s *System) mem.PageStats { return s.chip.PageStats() }

package rma

// RunProgSpilled reports whether core i's run-program buffer has
// outgrown its window of the chip-wide array and moved to the heap.
func (c *Chip) RunProgSpilled(i int) bool {
	return cap(c.slots[i].core.run.prog.ins) != progWindow
}

package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/scc"
)

// MPMD broadcast — the paper's §7 ongoing work: "extending OC-Bcast to
// handle the MPMD programming model by leveraging parallel inter-core
// interrupts. Many-core operating systems are an interesting use-case."
//
// In the SPMD Bcast, every core calls the collective with matching
// arguments, so receivers already know the root, size and address. Under
// MPMD the receivers are running unrelated work: the root must *activate*
// them. Announce builds an activation tree: each parent writes a one-line
// descriptor (root, address, size, sequence base) into each child's MPB
// and fires an inter-core interrupt; an activated core forwards the
// activation to its own children and then joins the ordinary OC-Bcast
// data path. HandleAnnounce is the receiver half: it blocks (as an OS
// would idle) until interrupted, reads the descriptor, and participates.

// descriptor layout within one 32-byte MPB line.
const descLine = scc.MPBLinesPerCore - 4 // one line below the fence flags

func encodeDescriptor(root, addr, lines int, base uint64) []byte {
	b := make([]byte, scc.CacheLine)
	binary.LittleEndian.PutUint32(b[0:], uint32(root))
	binary.LittleEndian.PutUint32(b[4:], uint32(lines))
	binary.LittleEndian.PutUint64(b[8:], uint64(addr))
	binary.LittleEndian.PutUint64(b[16:], base)
	return b
}

func decodeDescriptor(b []byte) (root, addr, lines int, base uint64) {
	root = int(binary.LittleEndian.Uint32(b[0:]))
	lines = int(binary.LittleEndian.Uint32(b[4:]))
	addr = int(binary.LittleEndian.Uint64(b[8:]))
	base = binary.LittleEndian.Uint64(b[16:])
	return
}

// activate writes the descriptor to every propagation child and fires
// their IPIs — the parallel inter-core interrupt fan-out.
func (b *Broadcaster) activate(t Tree, root, addr, lines int) {
	desc := encodeDescriptor(root, addr, lines, b.base)
	for _, child := range t.Children {
		b.core.PutLine(child, descLine, desc)
		b.core.SendIPI(child)
	}
}

// Announce broadcasts like Bcast but without requiring receivers to know
// the arguments: the root activates the tree via descriptors + IPIs.
// Receivers must be in (or eventually reach) HandleAnnounce. Only the
// root calls Announce.
func (b *Broadcaster) Announce(addr, lines int) {
	c := b.core
	if lines <= 0 {
		panic(fmt.Sprintf("occast: non-positive message size %d", lines))
	}
	if addr%scc.CacheLine != 0 {
		panic(fmt.Sprintf("occast: address %d not cache-line aligned", addr))
	}
	if c.N() == 1 {
		return
	}
	root := c.ID()
	t := b.buildTree(root)
	b.activate(t, root, addr, lines)
	b.lastRoot = root // activation hands every core fresh matching state
	b.run(t, addr, lines)
}

// HandleAnnounce blocks until this core is activated by an MPMD
// broadcast, participates in it, and returns the delivered message's
// (root, addr, lines). It is what an OS service loop would call.
func (b *Broadcaster) HandleAnnounce() (root, addr, lines int) {
	c := b.core
	c.WaitIPI()
	root, addr, lines, base := decodeDescriptor(c.ReadLineBytes(c.ID(), descLine))
	// Adopt the announcer's sequence base so flag values line up even if
	// this core missed earlier operations.
	b.base = base
	b.lastRoot = root
	t := b.buildTree(root)
	// Forward the activation down my subtree before touching data, so
	// the whole tree wakes in parallel.
	b.activate(t, root, addr, lines)
	b.run(t, addr, lines)
	return root, addr, lines
}

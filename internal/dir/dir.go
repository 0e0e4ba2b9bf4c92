// Package dir implements the full-map directory state kept by each home
// memory module in the DASH-style protocols of the paper. A directory entry
// records, per 32-byte block, whether memory's copy is current, which caches
// hold copies, and — for the memory-side implementations of load_linked /
// store_conditional — the outstanding reservations.
package dir

import (
	"fmt"

	"dsm/internal/arch"
	"dsm/internal/mesh"
)

// State is the stable sharing state of a block as recorded at its home.
type State uint8

const (
	// Unowned: no cache holds a copy; memory is current. (The paper calls
	// this case "uncached" in Table 1.)
	Unowned State = iota
	// Shared: one or more caches hold read-only copies; memory is current.
	Shared
	// Exclusive: exactly one cache holds an exclusive (dirty) copy; memory
	// is stale.
	Exclusive
	// Busy: a transaction is in flight for this block; incoming requests
	// are refused with negative acknowledgments and retried by requesters.
	Busy
)

// String returns a short human-readable state name.
func (s State) String() string {
	switch s {
	case Unowned:
		return "unowned"
	case Shared:
		return "shared"
	case Exclusive:
		return "exclusive"
	case Busy:
		return "busy"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Bitset is a set of node ids (up to 64 nodes, the machine size in the
// paper). The zero value is the empty set.
type Bitset uint64

// Add inserts node n.
func (b *Bitset) Add(n mesh.NodeID) { *b |= 1 << uint(n) }

// Remove deletes node n.
func (b *Bitset) Remove(n mesh.NodeID) { *b &^= 1 << uint(n) }

// Has reports whether node n is present.
func (b Bitset) Has(n mesh.NodeID) bool { return b&(1<<uint(n)) != 0 }

// Count returns the number of nodes present.
func (b Bitset) Count() int {
	n := 0
	for v := uint64(b); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Empty reports whether the set is empty.
func (b Bitset) Empty() bool { return b == 0 }

// ForEach calls fn for each node present, in increasing id order.
func (b Bitset) ForEach(fn func(mesh.NodeID)) {
	for v, i := uint64(b), 0; v != 0; v, i = v>>1, i+1 {
		if v&1 != 0 {
			fn(mesh.NodeID(i))
		}
	}
}

// Only reports whether the set contains exactly node n and nothing else.
func (b Bitset) Only(n mesh.NodeID) bool { return b == 1<<uint(n) }

// Entry is the directory record for one block.
type Entry struct {
	State   State
	known   bool        // referenced since the last Init or Reset
	Sharers Bitset      // caches holding read-only copies (State == Shared)
	Owner   mesh.NodeID // cache holding the exclusive copy (State == Exclusive)

	// Reservations holds memory-side LL/SC reservation state for the UNC
	// and UPD implementations; nil until the first load_linked.
	Reservations *ResvState
}

// Directory-table geometry: entries live by value in pages of
// dirPageEntries, indexed by the home-local block number and made on the
// first reference that touches them.
const (
	dirPageShift   = 5
	dirPageEntries = 1 << dirPageShift
)

// Directory is one home node's collection of entries. Blocks are
// interleaved across the machine's nodes by block number, so the blocks a
// home owns are every nodes-th one; a two-level table indexed by the
// home-local block number, BlockNumber/nodes, holds them densely. Entries
// are created on first reference in the Unowned state.
type Directory struct {
	home, nodes uint32
	pages       []*[dirPageEntries]Entry
}

// New returns an empty directory for a single-node machine, which homes
// every block.
func New() *Directory {
	d := &Directory{}
	d.Init(0, 1)
	return d
}

// Init (re)initializes a directory in place as home's directory in a
// machine of nodes nodes, for callers that embed Directory by value.
func (d *Directory) Init(home mesh.NodeID, nodes int) {
	*d = Directory{home: uint32(home), nodes: uint32(nodes)}
}

// Reset forgets every entry's contents, returning the directory to a state
// equivalent to post-Init while keeping the pages, and each entry's
// reservation state, allocated: a reused machine references the same
// blocks every run, so Entry allocates nothing in the steady state.
func (d *Directory) Reset() {
	for _, pg := range d.pages {
		if pg == nil {
			continue
		}
		for i := range pg {
			e := &pg[i]
			*e = Entry{Reservations: e.Reservations}
			if e.Reservations != nil {
				e.Reservations.Reset()
			}
		}
	}
}

// Entry returns the entry for the block containing a, creating it (Unowned)
// on first reference.
func (d *Directory) Entry(a arch.Addr) *Entry {
	i := arch.HomeLocalBlock(a, d.home, d.nodes)
	p := int(i >> dirPageShift)
	if p >= len(d.pages) {
		d.pages = append(d.pages, make([]*[dirPageEntries]Entry, p+1-len(d.pages))...)
	}
	pg := d.pages[p]
	if pg == nil {
		pg = new([dirPageEntries]Entry)
		d.pages[p] = pg
	}
	e := &pg[i&(dirPageEntries-1)]
	e.known = true
	return e
}

// Peek returns the entry for the block containing a, or nil if the block
// has not been referenced since the last Init or Reset.
func (d *Directory) Peek(a arch.Addr) *Entry {
	i := arch.HomeLocalBlock(a, d.home, d.nodes)
	p := int(i >> dirPageShift)
	if p >= len(d.pages) || d.pages[p] == nil {
		return nil
	}
	if e := &d.pages[p][i&(dirPageEntries-1)]; e.known {
		return e
	}
	return nil
}

// ForEach calls fn for every referenced entry, in increasing address order.
func (d *Directory) ForEach(fn func(arch.Addr, *Entry)) {
	for p, pg := range d.pages {
		if pg == nil {
			continue
		}
		for j := range pg {
			if e := &pg[j]; e.known {
				b := (uint32(p)<<dirPageShift|uint32(j))*d.nodes + d.home
				fn(arch.Addr(b*arch.BlockBytes), e)
			}
		}
	}
}

// Check verifies the internal consistency of an entry and panics with a
// descriptive message on violation. It is called from the protocol engines
// in race-heavy tests.
func (e *Entry) Check(base arch.Addr) {
	switch e.State {
	case Unowned:
		if !e.Sharers.Empty() {
			panic(fmt.Sprintf("dir: unowned block %#x has sharers %b", base, e.Sharers))
		}
	case Shared:
		if e.Sharers.Empty() {
			panic(fmt.Sprintf("dir: shared block %#x has no sharers", base))
		}
	case Exclusive:
		if !e.Sharers.Empty() {
			panic(fmt.Sprintf("dir: exclusive block %#x has sharers %b", base, e.Sharers))
		}
	}
}

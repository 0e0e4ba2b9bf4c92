package stats

import (
	"fmt"
	"math/bits"
	"slices"
)

// Location identifies a tracked shared word by its byte address. The index
// works at word granularity: the address's two low bits are ignored.
type Location uint32

// Location-index geometry: a page covers 4 KiB of address space, one slot
// per 4-byte word, and materializes on the first Intern that touches it.
const (
	locPageShift = 10
	locPageWords = 1 << locPageShift
)

// LocIndex gives each interned location a small dense id, so per-location
// tracker state lives in slices indexed by id. It is a two-level,
// address-indexed table — a page directory of lazily made pages of
// per-word slots — so a lookup is two loads and no hash. Ids count up from
// 0 in first-Intern order.
type LocIndex struct {
	pages []*[locPageWords]uint32 // word page -> per-word slot: id+1, 0 = none
	locs  []Location              // id -> location, for clearing slots on Reset
}

// Lookup returns loc's id, and false when loc has none.
func (x *LocIndex) Lookup(loc Location) (int, bool) {
	w := uint32(loc) >> 2
	if p := int(w >> locPageShift); p < len(x.pages) {
		if pg := x.pages[p]; pg != nil {
			if s := pg[w&(locPageWords-1)]; s != 0 {
				return int(s) - 1, true
			}
		}
	}
	return 0, false
}

// Intern returns loc's id, assigning the next one on first use.
func (x *LocIndex) Intern(loc Location) int {
	if id, ok := x.Lookup(loc); ok {
		return id
	}
	w := uint32(loc) >> 2
	p := int(w >> locPageShift)
	if p >= len(x.pages) {
		x.pages = extend(x.pages, p+1)
	}
	if x.pages[p] == nil {
		x.pages[p] = new([locPageWords]uint32)
	}
	x.locs = append(x.locs, loc)
	x.pages[p][w&(locPageWords-1)] = uint32(len(x.locs))
	return len(x.locs) - 1
}

// Reset forgets every id, keeping the pages: a reused machine touches the
// same locations every run, so re-interning them allocates nothing.
func (x *LocIndex) Reset() {
	for _, loc := range x.locs {
		w := uint32(loc) >> 2
		x.pages[w>>locPageShift][w&(locPageWords-1)] = 0
	}
	x.locs = x.locs[:0]
}

// extend returns s lengthened to n with zeroed new elements, reusing its
// capacity.
func extend[T any](s []T, n int) []T {
	old := len(s)
	if n <= old {
		return s
	}
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
}

// NewTrackers returns a contention tracker and a write-run tracker that
// share one location index, so a location has the same id in both and in
// the index returned. Resetting either tracker resets the shared index;
// reset both together.
func NewTrackers() (*LocIndex, *ContentionTracker, *WriteRunTracker) {
	x := new(LocIndex)
	return x, &ContentionTracker{locs: x, hist: NewHistogram()},
		&WriteRunTracker{locs: x, hist: NewHistogram()}
}

// ContentionTracker builds the paper's contention histograms: at the
// beginning of each atomic access to a tracked location it records how many
// processors (including the newcomer) are concurrently attempting an atomic
// access to that location. Processor ids must lie in 0..63, the machine
// sizes the simulator supports.
type ContentionTracker struct {
	locs  *LocIndex
	procs []uint64 // id -> set of processors with an access in progress
	// nested counts the extra Begins of processors already in their
	// location's set (a retry overlapping its own access), so Ends balance.
	// It is almost always empty; a linear scan keeps it map-free.
	nested []nestedBegin
	hist   *Histogram
}

// nestedBegin is the nesting depth beyond one of proc's accesses to id.
type nestedBegin struct {
	id, proc, extra int
}

// NewContentionTracker returns an empty tracker with its own location
// index.
func NewContentionTracker() *ContentionTracker {
	_, c, _ := NewTrackers()
	return c
}

// Reset forgets all in-progress accesses, accumulated samples and location
// ids, keeping every table's storage.
func (t *ContentionTracker) Reset() {
	t.locs.Reset()
	t.procs = t.procs[:0]
	t.nested = t.nested[:0]
	t.hist.Reset()
}

// procBit returns proc's bit in a location's processor set.
func procBit(proc int) uint64 {
	if uint(proc) >= 64 {
		panic(fmt.Sprintf("stats: contention proc %d outside 0..63", proc))
	}
	return 1 << uint(proc)
}

// Begin records that proc started an atomic access to loc and samples the
// current contention level. A proc already accessing loc counts once.
func (t *ContentionTracker) Begin(loc Location, proc int) {
	bit := procBit(proc)
	id := t.locs.Intern(loc)
	if id >= len(t.procs) {
		t.procs = extend(t.procs, id+1)
	}
	set := &t.procs[id]
	if *set&bit != 0 {
		t.nest(id, proc)
	}
	*set |= bit
	t.hist.Add(bits.OnesCount64(*set))
}

// nest records one more nested Begin of proc on id.
func (t *ContentionTracker) nest(id, proc int) {
	for i := range t.nested {
		if n := &t.nested[i]; n.id == id && n.proc == proc {
			n.extra++
			return
		}
	}
	t.nested = append(t.nested, nestedBegin{id: id, proc: proc, extra: 1})
}

// End records that proc finished an atomic access to loc. Unmatched Ends
// indicate a protocol bug and panic.
func (t *ContentionTracker) End(loc Location, proc int) {
	bit := procBit(proc)
	id, ok := t.locs.Lookup(loc)
	if !ok || id >= len(t.procs) || t.procs[id]&bit == 0 {
		panic("stats: contention End without Begin")
	}
	for i := range t.nested {
		if n := &t.nested[i]; n.id == id && n.proc == proc {
			if n.extra--; n.extra == 0 {
				last := len(t.nested) - 1
				t.nested[i] = t.nested[last]
				t.nested = t.nested[:last]
			}
			return
		}
	}
	t.procs[id] &^= bit
}

// Histogram returns the accumulated contention histogram.
func (t *ContentionTracker) Histogram() *Histogram { return t.hist }

// writeRun is the in-progress run state for one location.
type writeRun struct {
	writer int
	length int
	live   bool
}

// WriteRunTracker measures average write-run length: the number of
// consecutive writes (including atomic updates) by one processor to a
// location without intervening accesses — reads or writes — by any other
// processor (Eggers & Katz; paper section 4.2).
type WriteRunTracker struct {
	locs *LocIndex
	runs []writeRun // id -> run state
	hist *Histogram
}

// NewWriteRunTracker returns an empty tracker with its own location index.
func NewWriteRunTracker() *WriteRunTracker {
	_, _, w := NewTrackers()
	return w
}

// Reset forgets all in-progress runs, accumulated samples and location
// ids, keeping every table's storage.
func (t *WriteRunTracker) Reset() {
	t.locs.Reset()
	t.runs = t.runs[:0]
	t.hist.Reset()
}

// Access records an access by proc to loc. Writes by the current run's
// writer extend the run; any access by another processor terminates it.
// Reads by the run's own writer neither extend nor terminate.
func (t *WriteRunTracker) Access(loc Location, proc int, write bool) {
	if write {
		t.AccessID(t.locs.Intern(loc), proc, true)
	} else if id, ok := t.locs.Lookup(loc); ok {
		t.AccessID(id, proc, false)
	}
}

// AccessID is Access for the location whose id in the tracker's index is
// id, for callers that already hold it.
func (t *WriteRunTracker) AccessID(id, proc int, write bool) {
	if id >= len(t.runs) {
		if !write {
			return
		}
		t.runs = extend(t.runs, id+1)
	}
	r := &t.runs[id]
	if r.live && proc != r.writer {
		// Intervening access by another processor ends the run.
		t.hist.Add(r.length)
		r.live = false
	}
	if !write {
		return
	}
	if !r.live {
		*r = writeRun{writer: proc, length: 1, live: true}
		return
	}
	r.length++
}

// Flush terminates all in-progress runs (call at end of simulation).
func (t *WriteRunTracker) Flush() {
	for i := range t.runs {
		if r := &t.runs[i]; r.live {
			t.hist.Add(r.length)
			r.live = false
		}
	}
}

// Histogram returns the run-length histogram (Flush first for completeness).
func (t *WriteRunTracker) Histogram() *Histogram { return t.hist }

// Mean returns the average completed run length.
func (t *WriteRunTracker) Mean() float64 { return t.hist.Mean() }

// ChainRecorder accumulates serialized-network-message chain lengths per
// operation class, reproducing Table 1. Classes form a rows x cols grid
// declared at construction; RecordAt indexes it directly, so recording
// builds and hashes no class string. The read API (Class, Classes) names
// cells through the grid's name function.
type ChainRecorder struct {
	cols int
	name func(row, col int) string
	grid []Histogram // rows*cols; a cell with no samples was never recorded
}

// NewChainGrid returns a recorder over a rows x cols grid; name renders a
// cell's class string for the read API.
func NewChainGrid(rows, cols int, name func(row, col int) string) *ChainRecorder {
	return &ChainRecorder{cols: cols, name: name, grid: make([]Histogram, rows*cols)}
}

// Reset forgets every recorded class, keeping the cells' storage so the
// reused-machine path stays allocation-free. It is safe because reports
// never alias chain histograms — report.Collect copies out scalar
// summaries.
func (c *ChainRecorder) Reset() {
	for i := range c.grid {
		c.grid[i].Reset()
	}
}

// RecordAt logs a completed transaction of the grid class (row, col) with
// the given serialized network message count.
func (c *ChainRecorder) RecordAt(row, col, chain int) {
	c.grid[row*c.cols+col].Add(chain)
}

// Class returns the histogram for a class, or nil if never recorded.
func (c *ChainRecorder) Class(class string) *Histogram {
	for i := range c.grid {
		if h := &c.grid[i]; h.Total() != 0 && c.name(i/c.cols, i%c.cols) == class {
			return h
		}
	}
	return nil
}

// Classes returns the recorded class names in grid order.
func (c *ChainRecorder) Classes() []string {
	out := make([]string, 0, len(c.grid))
	for i := range c.grid {
		if c.grid[i].Total() != 0 {
			out = append(out, c.name(i/c.cols, i%c.cols))
		}
	}
	return out
}

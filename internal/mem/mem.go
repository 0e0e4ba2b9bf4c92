// Package mem models the queued memory modules of the simulated machine.
//
// Each node owns one module holding that node's share of physical memory.
// Requests are serviced in arrival order: a module can overlap the tail of
// one access with the next (occupancy < latency models a pipelined DRAM
// bank), so under load the effective service rate is one access per
// occupancy period, while an isolated access completes after the full
// latency. This is the "queued memory" of the paper's methodology and is
// the source of memory contention in all experiments.
package mem

import (
	"dsm/internal/arch"
	"dsm/internal/sim"
)

// Config holds memory module timing parameters, in cycles.
type Config struct {
	Latency   sim.Time // arrival (at the module) to data available
	Occupancy sim.Time // minimum spacing between successive service starts
}

// DefaultConfig models a moderately fast early-90s DRAM bank.
func DefaultConfig() Config {
	return Config{Latency: 18, Occupancy: 6}
}

// Stats aggregates module activity.
type Stats struct {
	Accesses  uint64 `json:"accesses"`   // serviced requests
	QueueWait uint64 `json:"queue_wait"` // total cycles requests waited to start service
}

// Memory-table geometry: block payloads live by value in pages of
// memPageBlocks, indexed by the home-local block number and made on the
// first touch.
const (
	memPageShift  = 5
	memPageBlocks = 1 << memPageShift
)

// Module is one node's memory bank plus its physical storage. Blocks are
// interleaved across the machine's nodes by block number, so a module
// stores every nodes-th block; a two-level table indexed by the home-local
// block number, BlockNumber/nodes, holds them densely. Absent blocks read
// as zero, matching the zero-initialized shared address space the
// applications expect.
type Module struct {
	eng         *sim.Engine
	cfg         Config
	busy        sim.Time // next service may start at this time
	home, nodes uint32
	pages       []*[memPageBlocks]arch.BlockData
	stats       Stats
}

// New returns an empty module with the given timing for a single-node
// machine, which homes every block.
func New(eng *sim.Engine, cfg Config) *Module {
	m := &Module{}
	m.Init(eng, cfg, 0, 1)
	return m
}

// Init (re)initializes a module in place as home's module in a machine of
// nodes nodes, for callers that embed Module by value.
func (m *Module) Init(eng *sim.Engine, cfg Config, home, nodes int) {
	*m = Module{eng: eng, cfg: cfg, home: uint32(home), nodes: uint32(nodes)}
}

// Stats returns a snapshot of the activity counters.
func (m *Module) Stats() Stats { return m.stats }

// ResetStats clears the activity counters.
func (m *Module) ResetStats() { m.stats = Stats{} }

// Reset returns the module to its post-Init state: bank idle, counters
// cleared, storage reading as zero everywhere. Pages are zeroed in place
// rather than dropped: a reused machine touches the same blocks every run,
// and a zeroed block is indistinguishable from an absent one, so refilling
// after a reset allocates nothing in the steady state.
func (m *Module) Reset() {
	m.busy = 0
	m.stats = Stats{}
	for _, pg := range m.pages {
		if pg != nil {
			*pg = [memPageBlocks]arch.BlockData{}
		}
	}
}

// Access enqueues one memory access and schedules done when its data is
// available. Queueing and bank occupancy are modeled; the callback performs
// the actual storage read/update at completion time.
func (m *Module) Access(done func()) {
	m.eng.At(m.serviceTime(), done)
}

// AccessArg is Access delivering via a (handler, payload) pair: done(arg)
// runs when the data is available. With a preallocated handler and a
// pointer payload, enqueueing an access allocates nothing.
func (m *Module) AccessArg(done func(any), arg any) {
	m.eng.AtArg(m.serviceTime(), done, arg)
}

// serviceTime books one access through the bank queue and returns the
// absolute time its data is available.
func (m *Module) serviceTime() sim.Time {
	start := m.eng.Now()
	if m.busy > start {
		m.stats.QueueWait += uint64(m.busy - start)
		start = m.busy
	}
	m.busy = start + m.cfg.Occupancy
	m.stats.Accesses++
	return start + m.cfg.Latency
}

// block returns the storage for the block containing a, making its page on
// first touch. It panics when a's block belongs to another home.
func (m *Module) block(a arch.Addr) *arch.BlockData {
	i := arch.HomeLocalBlock(a, m.home, m.nodes)
	p := int(i >> memPageShift)
	if p >= len(m.pages) {
		m.pages = append(m.pages, make([]*[memPageBlocks]arch.BlockData, p+1-len(m.pages))...)
	}
	pg := m.pages[p]
	if pg == nil {
		pg = new([memPageBlocks]arch.BlockData)
		m.pages[p] = pg
	}
	return &pg[i&(memPageBlocks-1)]
}

// ReadBlock returns a copy of the block containing a.
func (m *Module) ReadBlock(a arch.Addr) arch.BlockData {
	return *m.block(a)
}

// WriteBlock replaces the block containing a.
func (m *Module) WriteBlock(a arch.Addr, d arch.BlockData) {
	*m.block(a) = d
}

// ReadWord returns the word at a (word-aligned).
func (m *Module) ReadWord(a arch.Addr) arch.Word {
	arch.CheckWordAligned(a)
	return m.block(a)[arch.WordIndex(a)]
}

// WriteWord stores v at a (word-aligned).
func (m *Module) WriteWord(a arch.Addr, v arch.Word) {
	arch.CheckWordAligned(a)
	m.block(a)[arch.WordIndex(a)] = v
}

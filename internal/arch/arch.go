// Package arch defines the architectural constants and primitive types of
// the simulated machine: 32-bit words, 32-byte cache/memory blocks, and the
// shared physical address space.
//
// These mirror the machine evaluated in the paper (MIPS R4000 processors,
// 32-byte blocks).
package arch

import "fmt"

// Addr is a physical byte address in the simulated shared address space.
type Addr uint32

// Word is the unit of all loads, stores, and atomic operations (32 bits, as
// on the MIPS R4000).
type Word uint32

// Architectural size constants.
const (
	WordBytes     = 4
	BlockBytes    = 32
	WordsPerBlock = BlockBytes / WordBytes
)

// BlockData is the contents of one memory/cache block.
type BlockData [WordsPerBlock]Word

// BlockBase returns the address of the first byte of the block containing a.
func BlockBase(a Addr) Addr { return a &^ (BlockBytes - 1) }

// BlockNumber returns the index of the block containing a.
func BlockNumber(a Addr) uint32 { return uint32(a) / BlockBytes }

// HomeLocalBlock returns the index of a's block among the blocks homed at
// node home, when blocks are interleaved across nodes by block number: the
// dense index each home's directory and memory tables use. It panics when
// a's block is homed at another node.
func HomeLocalBlock(a Addr, home, nodes uint32) uint32 {
	b := BlockNumber(a)
	i := b / nodes
	if b-i*nodes != home {
		panic(fmt.Sprintf("arch: block %#x is not homed at node %d of %d", uint32(BlockBase(a)), home, nodes))
	}
	return i
}

// WordIndex returns the index within its block of the word containing a.
func WordIndex(a Addr) int { return int(a%BlockBytes) / WordBytes }

// WordAligned reports whether a is word-aligned. All memory operations in
// the simulator require word alignment.
func WordAligned(a Addr) bool { return a%WordBytes == 0 }

// CheckWordAligned panics if a is not word aligned. Misaligned references
// indicate an application bug, the simulated analogue of a MIPS address
// error exception.
func CheckWordAligned(a Addr) {
	if !WordAligned(a) {
		panic(fmt.Sprintf("arch: misaligned word address %#x", uint32(a)))
	}
}

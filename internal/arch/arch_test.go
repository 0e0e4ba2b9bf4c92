package arch

import (
	"testing"
	"testing/quick"
)

func TestBlockBase(t *testing.T) {
	cases := []struct{ in, want Addr }{
		{0, 0}, {1, 0}, {31, 0}, {32, 32}, {63, 32}, {0xffffffe0, 0xffffffe0},
	}
	for _, c := range cases {
		if got := BlockBase(c.in); got != c.want {
			t.Errorf("BlockBase(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestBlockBaseIdempotentAndAligned(t *testing.T) {
	f := func(a uint32) bool {
		b := BlockBase(Addr(a))
		return b%BlockBytes == 0 && BlockBase(b) == b && b <= Addr(a) && Addr(a)-b < BlockBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWordIndex(t *testing.T) {
	for w := 0; w < WordsPerBlock; w++ {
		a := Addr(96 + w*WordBytes)
		if got := WordIndex(a); got != w {
			t.Errorf("WordIndex(%#x) = %d, want %d", a, got, w)
		}
	}
}

func TestBlockNumberConsistentWithBase(t *testing.T) {
	f := func(a uint32) bool {
		return BlockNumber(Addr(a)) == uint32(BlockBase(Addr(a)))/BlockBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWordAligned(t *testing.T) {
	if !WordAligned(8) || WordAligned(9) || WordAligned(10) || !WordAligned(0) {
		t.Fatal("WordAligned misclassifies")
	}
}

func TestCheckWordAlignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on misaligned address")
		}
	}()
	CheckWordAligned(3)
}

func TestConstantsConsistent(t *testing.T) {
	if WordsPerBlock*WordBytes != BlockBytes {
		t.Fatal("block geometry inconsistent")
	}
	if BlockBytes != 32 || WordBytes != 4 {
		t.Fatal("paper-mandated sizes changed")
	}
}

func TestHomeLocalBlockInvertsInterleaving(t *testing.T) {
	f := func(a uint32, n uint8) (ok bool) {
		nodes := uint32(n%64) + 1
		b := BlockNumber(Addr(a))
		home := b % nodes
		if HomeLocalBlock(Addr(a), home, nodes)*nodes+home != b {
			return false
		}
		if nodes == 1 {
			return true
		}
		// Any other home must refuse the block.
		defer func() { ok = recover() != nil }()
		HomeLocalBlock(Addr(a), (home+1)%nodes, nodes)
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Assembly: drive the simulator the way the paper drove MINT — with
// instruction-level code. A lock-free counter written in the MIPS-flavored
// assembly of internal/asm runs on all 64 processors under each primitive,
// and the run prints instructions executed and cycles per instruction.
package main

import (
	"fmt"

	"dsm"
	"dsm/internal/asm"
)

// counterFAA increments with a single fetch_and_add per iteration.
const counterFAA = `
	li    $t9, 1
	li    $s0, 0
loop:	beq   $s0, $a1, done
	faa   $t0, $t9, 0($a0)
	addiu $s0, $s0, 1
	j     loop
done:	halt
`

// counterLLSC increments with a load_linked/store_conditional retry loop.
const counterLLSC = `
	li    $s0, 0
loop:	beq   $s0, $a1, done
retry:	ll    $t0, 0($a0)
	addiu $t1, $t0, 1
	sc    $t1, 0($a0)
	beq   $t1, $zero, retry
	addiu $s0, $s0, 1
	j     loop
done:	halt
`

// counterCAS increments with a load + compare_and_swap retry loop.
const counterCAS = `
	li    $s0, 0
loop:	beq   $s0, $a1, done
retry:	lw    $t0, 0($a0)
	addiu $t1, $t0, 1
	cas   $t2, $t0, $t1, 0($a0)
	beq   $t2, $zero, retry
	addiu $s0, $s0, 1
	j     loop
done:	halt
`

func main() {
	const iters = 4
	programs := []struct {
		name   string
		src    string
		policy dsm.Policy
	}{
		{"fetch_and_add (UNC)", counterFAA, dsm.UNC},
		{"fetch_and_add (INV)", counterFAA, dsm.INV},
		{"ll/sc retry loop (INV)", counterLLSC, dsm.INV},
		{"load+cas retry loop (INV)", counterCAS, dsm.INV},
	}
	fmt.Println("lock-free counter in assembly, 64 processors x 4 increments:")
	for _, pr := range programs {
		m := dsm.New64()
		counter := m.AllocSync(pr.policy)
		prog := asm.MustAssemble(pr.src)
		var instructions uint64
		elapsed := m.Run(func(p *dsm.Proc) {
			cpu := asm.Run(p, prog, map[asm.Reg]dsm.Word{4: dsm.Word(counter), 5: iters}, 0)
			instructions += cpu.Instructions
		})
		ok := "ok"
		if m.Peek(counter) != 64*iters {
			ok = fmt.Sprintf("WRONG (%d)", m.Peek(counter))
		}
		fmt.Printf("  %-28s %8d cycles  %6d instructions  %s\n",
			pr.name, elapsed, instructions, ok)
		m.Close()
	}
}

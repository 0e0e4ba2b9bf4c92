// Primitives: reproduce the paper's core comparison in miniature. A shared
// counter is updated under contention by fetch_and_add, compare_and_swap,
// and load_linked/store_conditional, under each coherence policy, with and
// without the auxiliary load_exclusive instruction — a small slice of the
// paper's Figure 3.
package main

import (
	"fmt"

	"dsm"
)

func main() {
	const procs, rounds = 32, 10
	pattern := dsm.Pattern{Contention: procs, Rounds: rounds}

	type variant struct {
		name   string
		policy dsm.Policy
		opts   dsm.Options
	}
	variants := []variant{
		{"UNC fetch_and_add", dsm.UNC, dsm.Options{Prim: dsm.FAP}},
		{"INV fetch_and_add", dsm.INV, dsm.Options{Prim: dsm.FAP}},
		{"UPD fetch_and_add", dsm.UPD, dsm.Options{Prim: dsm.FAP}},
		{"INV compare_and_swap", dsm.INV, dsm.Options{Prim: dsm.CAS}},
		{"INV compare_and_swap + load_exclusive", dsm.INV,
			dsm.Options{Prim: dsm.CAS, UseLoadExclusive: true}},
		{"INV load_linked/store_conditional", dsm.INV, dsm.Options{Prim: dsm.LLSC}},
		{"UNC load_linked/store_conditional", dsm.UNC, dsm.Options{Prim: dsm.LLSC}},
	}

	fmt.Printf("lock-free counter, %d processors all contending (avg cycles/update):\n", procs)
	for _, v := range variants {
		m := dsm.NewSmall(procs)
		res := dsm.CounterApp(m, v.policy, v.opts, pattern)
		fmt.Printf("  %-42s %8.1f\n", v.name, res.AvgCycles)
		m.Close()
	}

	// The paper's conclusion in one contrast: a migratory read-modify-write
	// done with plain-load+CAS pays an upgrade miss on every CAS; reading
	// with load_exclusive makes the CAS a local hit.
	m := dsm.NewSmall(2)
	defer m.Close()
	a := m.AllocSyncAt(1, dsm.INV) // homed away from the requester
	progs := make([]func(*dsm.Proc), m.Procs())
	progs[0] = func(p *dsm.Proc) {
		v := p.Load(a)
		chainPlain := p.Do(dsm.Request{Op: dsm.OpCAS, Addr: a, Val: v, Val2: v + 1}).Chain
		v = p.LoadExclusive(a)
		chainLdex := p.Do(dsm.Request{Op: dsm.OpCAS, Addr: a, Val: v, Val2: v + 1}).Chain
		fmt.Printf("\nserialized messages for one CAS: after plain load %d, after load_exclusive %d\n",
			chainPlain, chainLdex)
	}
	m.RunEach(progs)
}

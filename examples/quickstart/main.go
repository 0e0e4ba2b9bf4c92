// Quickstart: simulate the paper's 64-processor DSM machine, update a
// shared counter from every processor with fetch_and_add, and compare the
// three coherence policies for atomically accessed data.
package main

import (
	"fmt"

	"dsm"
)

func main() {
	for _, policy := range []dsm.Policy{dsm.INV, dsm.UPD, dsm.UNC} {
		m := dsm.New64()
		counter := m.AllocSync(policy)

		elapsed := m.Run(func(p *dsm.Proc) {
			for i := 0; i < 4; i++ {
				p.FetchAdd(counter, 1)
				p.Compute(50) // private work between updates
			}
		})

		fmt.Printf("%s: counter=%d after %d cycles on %d processors\n",
			policy, m.Peek(counter), elapsed, m.Procs())
		m.Close() // stops the processors' coroutines
	}
}

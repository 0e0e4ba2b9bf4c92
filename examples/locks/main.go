// Locks: build synchronization on the public API. Compares the paper's
// test-and-test-and-set lock (bounded exponential backoff) against the MCS
// queue lock under heavy contention, and shows how to write a new
// algorithm — a ticket lock — directly against the Proc interface.
package main

import (
	"fmt"

	"dsm"
)

const (
	procs = 16
	iters = 4
)

func main() {
	fmt.Printf("%d processors, %d lock acquisitions each, short critical section:\n", procs, iters)

	ttsTime := contend("test-and-test-and-set + backoff", func(m *dsm.Machine) acquirer {
		return dsm.NewTTSLock(m, dsm.INV, dsm.Options{Prim: dsm.CAS})
	})
	mcsTime := contend("MCS queue lock", func(m *dsm.Machine) acquirer {
		return dsm.NewMCSLock(m, dsm.INV, dsm.Options{Prim: dsm.CAS})
	})
	ticketTime := contend("ticket lock (custom, built on FAI)", newTicketLock)

	fmt.Printf("\nTTS/MCS elapsed ratio: %.2f, TTS/ticket: %.2f\n",
		float64(ttsTime)/float64(mcsTime), float64(ttsTime)/float64(ticketTime))
}

type acquirer interface {
	Acquire(p *dsm.Proc)
	Release(p *dsm.Proc)
}

func contend(name string, mk func(m *dsm.Machine) acquirer) dsm.Time {
	m := dsm.NewSmall(procs)
	defer m.Close()
	l := mk(m)
	shared := m.Alloc(4)
	elapsed := m.Run(func(p *dsm.Proc) {
		for i := 0; i < iters; i++ {
			l.Acquire(p)
			p.Store(shared, p.Load(shared)+1) // racy unless the lock works
			l.Release(p)
			p.Compute(30)
		}
	})
	ok := "ok"
	if m.Peek(shared) != procs*iters {
		ok = fmt.Sprintf("LOST UPDATES (%d/%d)", m.Peek(shared), procs*iters)
	}
	fmt.Printf("  %-38s %8d cycles  %s\n", name, elapsed, ok)
	return elapsed
}

// ticketLock is a fair spin lock built directly on the public API:
// fetch_and_add hands out tickets; the grant word is ordinary data.
type ticketLock struct {
	ticket dsm.Addr // next ticket (fetch_and_add, UNC: counters like this are its sweet spot)
	grant  dsm.Addr // now serving (ordinary loads/stores)
}

func newTicketLock(m *dsm.Machine) acquirer {
	return &ticketLock{
		ticket: m.AllocSync(dsm.UNC),
		grant:  m.Alloc(4),
	}
}

func (l *ticketLock) Acquire(p *dsm.Proc) {
	my := p.FetchAdd(l.ticket, 1)
	for p.Load(l.grant) != my {
		p.Compute(16)
	}
}

func (l *ticketLock) Release(p *dsm.Proc) {
	p.Store(l.grant, p.Load(l.grant)+1)
}

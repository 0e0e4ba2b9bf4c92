//go:build go1.23

package machine

import "iter"

// stopped is the panic value that unwinds a suspended program when its
// machine is closed.
type stopped struct{}

// start makes the processor's coroutine. iter.Pull runs loop on a
// goroutine of its own, but the engine and the program switch between
// each other directly (a runtime coroswitch) rather than through the
// scheduler, and the stack the first program grows serves every later one.
func (p *Proc) start() {
	p.next, p.stop = iter.Pull(iter.Seq[struct{}](p.loop))
}

// loop is the coroutine body. It runs each program begin installs, then
// reports actDone and parks until the engine starts the next one. It
// returns when the machine is closed, whether between programs or with a
// program suspended mid-run.
func (p *Proc) loop(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopped); !ok {
				panic(r)
			}
		}
	}()
	p.yield = yield
	for {
		p.prog(p)
		p.act = action{kind: actDone}
		if !yield(struct{}{}) {
			return
		}
	}
}

// Close stops the processors' coroutines. A processor's coroutine is a
// parked goroutine that references its machine, so a machine dropped
// without Close is never collected. A program left suspended mid-run (a
// run abandoned by a panic) unwinds: its deferred calls run, but its
// operations no longer return. Close is idempotent, and the machine's
// state stays readable after it. Call it between runs, or after a run
// panicked.
func (m *Machine) Close() {
	for _, p := range m.procs {
		if p.stop != nil {
			p.stop()
			p.next, p.stop, p.yield = nil, nil, nil
		}
	}
}

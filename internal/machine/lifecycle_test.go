package machine

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dsm/internal/core"
)

// procCoroutines counts the goroutines running a processor coroutine,
// whatever else the test binary has running. Machines other tests left
// unclosed keep theirs parked, so tests compare against a count taken
// when they start.
func procCoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "machine.(*Proc).loop(")
}

// settleCoroutines waits for the processor coroutines to fall back to
// base and fails the test if they do not within a few seconds.
func settleCoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for procCoroutines() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d processor coroutines leaked", procCoroutines()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// closeWithin runs m.Close and fails the test if it does not return.
func closeWithin(t *testing.T, m *Machine) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		m.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}

// runRecovering runs programs and returns the value Run panicked with.
func runRecovering(m *Machine, programs []func(*Proc)) (r any) {
	defer func() { r = recover() }()
	m.RunEach(programs)
	return nil
}

func TestCloseReleasesProcessorCoroutines(t *testing.T) {
	base := procCoroutines()
	m := newSmall()
	a := m.AllocSync(core.PolicyINV)
	m.Run(func(p *Proc) { p.FetchAdd(a, 1) })
	m.Run(func(p *Proc) { p.FetchAdd(a, 1) })
	if got := procCoroutines() - base; got != m.Procs() {
		t.Fatalf("%d processor coroutines after two runs, want one per processor (%d)", got, m.Procs())
	}
	closeWithin(t, m)
	settleCoroutines(t, base)
	if m.Peek(a) != 8 {
		t.Fatalf("counter = %d after Close, want 8", m.Peek(a))
	}
	m.Close() // idempotent
}

// TestProgramPanicSurfacesFromRun pins where a program's panic goes: out
// of Run, on the caller's goroutine, where a server's recover can catch
// it. The machine can be closed afterwards, which unwinds the processor
// stopped mid-program inside a spin loop.
func TestProgramPanicSurfacesFromRun(t *testing.T) {
	base := procCoroutines()
	m := newSmall()
	flag := m.AllocSync(core.PolicyINV)
	unwound := false
	r := runRecovering(m, []func(*Proc){
		func(p *Proc) {
			defer func() { unwound = true }()
			for p.Load(flag) == 0 { // never released: only Close ends it
			}
		},
		func(p *Proc) {
			p.Compute(200)
			panic("program failed")
		},
		nil, nil,
	})
	if r != "program failed" {
		t.Fatalf("Run panicked with %v, want the program's panic", r)
	}
	if unwound {
		t.Fatal("spinning program unwound before Close")
	}
	closeWithin(t, m)
	if !unwound {
		t.Fatal("Close did not unwind the program stopped mid-run")
	}
	settleCoroutines(t, base)
}

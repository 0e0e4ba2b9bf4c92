package serve

import (
	"net/http"
	"runtime"
	"testing"
	"time"

	"dsm/internal/exper"
)

// settleGoroutines waits for the goroutine count to fall to want and fails
// the test if it does not within a few seconds.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: worker machines left unclosed", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseReleasesWorkerMachines checks that Close leaves neither worker
// goroutines nor the processor coroutines of their slots' machines.
func TestCloseReleasesWorkerMachines(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2})
	for _, q := range []string{
		"/v1/sim?app=counter&procs=4&rounds=2",
		"/v1/sim?app=counter&procs=8&rounds=2",
		"/v1/sim?app=tts&procs=4&rounds=2",
	} {
		if w := doGet(s, q); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, w.Code, w.Body)
		}
	}
	s.Close()
	settleGoroutines(t, base)
}

// TestPanickedRunClosesSlot checks that a run the worker recovers from
// closes the worker's slot: its machines are dropped and their processor
// coroutines stopped.
func TestPanickedRunClosesSlot(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var slot exper.MachineSlot
	good, err := Spec{App: "counter", Procs: 4, Rounds: 2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	if _, err := s.runEncoded(good, &slot); err != nil {
		t.Fatalf("good spec: %v", err)
	}
	if _, err := s.runEncoded(Spec{App: "bogus"}, &slot); err == nil {
		t.Fatal("unnormalized spec did not fail")
	}
	if slot.Resident() != 0 {
		t.Fatalf("%d machines resident after a panicked run", slot.Resident())
	}
	settleGoroutines(t, base)
}

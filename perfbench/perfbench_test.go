package main

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"dsm/internal/apps"
)

// subset keeps every k-th point of a grid so the tests stay fast while
// still covering every app, bar family and pattern.
func subset(in gridInputs, k int) gridInputs {
	var out gridInputs
	for i := 0; i < len(in.points); i += k {
		out.points = append(out.points, in.points[i])
		out.expect = append(out.expect, in.expect[i])
	}
	return out
}

// passDigest runs one grid pass and returns every point's result digest
// and the pass's exact layer counts, failing the test on any check.
func passDigest(t *testing.T, in gridInputs, width int) ([]uint64, counts) {
	t.Helper()
	recs := make([]pointRec, len(in.points))
	gridPass(in, width, nil, 0, recs)
	digests := make([]uint64, len(recs))
	var c counts
	for i, r := range recs {
		if r.err != "" {
			t.Fatalf("point %d: %s", i, r.err)
		}
		digests[i] = r.digest
		c.add(r.counts)
	}
	return digests, c
}

func TestSameSeedSameResults(t *testing.T) {
	for _, in := range []gridInputs{subset(synthInputs(7), 23), subset(realInputs(7), 21)} {
		d1, c1 := passDigest(t, in, runtime.NumCPU())
		d2, c2 := passDigest(t, in, runtime.NumCPU())
		if !reflect.DeepEqual(d1, d2) || c1 != c2 {
			t.Fatalf("same seed, different results: counts %+v vs %+v", c1, c2)
		}
	}
	a, b := synthInputs(7), synthInputs(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different grid inputs")
	}
	s1, _ := newServeInputs(7)
	s2, _ := newServeInputs(7)
	if !reflect.DeepEqual(s1.urls, s2.urls) || !reflect.DeepEqual(s1.schedule(500, time.Second, 1), s2.schedule(500, time.Second, 1)) {
		t.Fatal("same seed generated different serve load")
	}
	if !reflect.DeepEqual(mcCases(7), mcCases(7)) {
		t.Fatal("same seed generated different model-checker configs")
	}
}

func TestSweepWidthInvariance(t *testing.T) {
	in := subset(synthInputs(3), 11)
	d1, c1 := passDigest(t, in, 1)
	dn, cn := passDigest(t, in, runtime.NumCPU())
	if !reflect.DeepEqual(d1, dn) || c1 != cn {
		t.Fatalf("width 1 and width %d differ: counts %+v vs %+v", runtime.NumCPU(), c1, cn)
	}
}

func TestDifferentSeedChangesInputsAndPasses(t *testing.T) {
	a, b := synthInputs(1), synthInputs(2)
	if reflect.DeepEqual(a.points, b.points) {
		t.Fatal("different seeds generated identical grid inputs")
	}
	passDigest(t, subset(b, 29), runtime.NumCPU())
	passDigest(t, subset(realInputs(2), 21), runtime.NumCPU())

	s1, _ := newServeInputs(1)
	s2, err := newServeInputs(2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1.urls, s2.urls) {
		t.Fatal("different seeds generated identical serve catalogs")
	}
	o := options{seed: 2, width: runtime.NumCPU()}
	s := &serveRun{in: s2.prefix(32), body: map[int][]byte{}, gz: map[int][]byte{}, srv: newServerSized(o, 8)}
	defer s.srv.Close()
	out := newOutcome()
	r := s.rung(s.in.schedule(400, 500*time.Millisecond, 1), 400, nil, 0, out)
	if out.failed != 0 || r.Failed != 0 {
		t.Fatalf("serve checks failed: %v", out.problems)
	}
	for _, rec := range r.recs {
		if rec.cache != "hit" && rec.cache != "miss" && rec.cache != "coalesced" {
			t.Fatalf("response without X-Cache: %+v", rec)
		}
	}

	m1, m2 := mcCases(1), mcCases(2)
	if reflect.DeepEqual(m1, m2) {
		t.Fatal("different seeds generated identical model-checker configs")
	}
	var small []mcCase
	for _, c := range m2 {
		if c.name == "upd-read-window" || c.name == "inv-contention" || c.name == "invs-cas-race" {
			small = append(small, c)
		}
	}
	n := len(small)
	states, verdicts, hosts := make([]int, n), make([]string, n), make([]time.Duration, n)
	mcPass(small, nil, 0, states, hosts, verdicts)
	for i, v := range verdicts {
		if v != "" {
			t.Fatalf("%s: %s", small[i].name, v)
		}
	}
}

// TestExpectedUpdatesMatchesPlan pins the independent recount of the
// synthetic patterns' updates on small hand-checked cases.
func TestExpectedUpdatesMatchesPlan(t *testing.T) {
	cases := []struct {
		c      int
		a      float64
		rounds int
		want   uint64
	}{
		{1, 1, 6, 6}, {1, 1.5, 6, 9}, {1, 3, 6, 18}, {4, 0, 6, 24}, {64, 0, 6, 96},
	}
	for _, k := range cases {
		got := expectedUpdates(apps.Pattern{Contention: k.c, WriteRun: k.a, Rounds: k.rounds}, 16)
		if got != k.want {
			t.Errorf("c=%d a=%g rounds=%d: %d updates, want %d", k.c, k.a, k.rounds, got, k.want)
		}
	}
}

package stats

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The map-based trackers below are the package's previous implementation,
// kept as an oracle: the dense, index-based trackers must produce exactly
// the histograms these do on any Begin/End/Access/Flush/Reset sequence.

type oracleHistogram struct {
	counts map[int]uint64
	total  uint64
	sum    int64
}

func newOracleHistogram() *oracleHistogram {
	return &oracleHistogram{counts: make(map[int]uint64)}
}

func (h *oracleHistogram) reset() {
	clear(h.counts)
	h.total, h.sum = 0, 0
}

func (h *oracleHistogram) addN(v int, n uint64) {
	if n == 0 {
		return
	}
	h.counts[v] += n
	h.total += n
	h.sum += int64(v) * int64(n)
}

func (h *oracleHistogram) values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

func (h *oracleHistogram) max() int {
	vs := h.values()
	if len(vs) == 0 {
		return 0
	}
	return vs[len(vs)-1]
}

func (h *oracleHistogram) json() string {
	bins := make([]histogramBin, 0, len(h.counts))
	for _, v := range h.values() {
		bins = append(bins, histogramBin{V: v, N: h.counts[v]})
	}
	b, _ := json.Marshal(bins)
	return string(b)
}

type oracleContention struct {
	active map[Location]map[int]int
	hist   *oracleHistogram
}

func (t *oracleContention) begin(loc Location, proc int) {
	procs := t.active[loc]
	if procs == nil {
		procs = make(map[int]int)
		t.active[loc] = procs
	}
	procs[proc]++
	t.hist.addN(len(procs), 1)
}

// isActive reports whether proc has an access to loc in progress.
func (t *oracleContention) isActive(loc Location, proc int) bool {
	return t.active[loc][proc] > 0
}

func (t *oracleContention) end(loc Location, proc int) {
	procs := t.active[loc]
	procs[proc]--
	if procs[proc] == 0 {
		delete(procs, proc)
	}
}

type oracleWriteRuns struct {
	runs map[Location]writeRun
	hist *oracleHistogram
}

func (t *oracleWriteRuns) access(loc Location, proc int, write bool) {
	r, live := t.runs[loc]
	if live && proc != r.writer {
		t.hist.addN(r.length, 1)
		delete(t.runs, loc)
		live = false
	}
	if !write {
		return
	}
	if !live {
		t.runs[loc] = writeRun{writer: proc, length: 1}
		return
	}
	r.length++
	t.runs[loc] = r
}

func (t *oracleWriteRuns) flush() {
	for loc, r := range t.runs {
		t.hist.addN(r.length, 1)
		delete(t.runs, loc)
	}
}

// sameHistogram fails t unless h and want hold the same samples, compared
// through every read accessor and the JSON encoding.
func sameHistogram(t *testing.T, what string, h *Histogram, want *oracleHistogram) {
	t.Helper()
	if h.Total() != want.total {
		t.Fatalf("%s: Total = %d, want %d", what, h.Total(), want.total)
	}
	if got, w := h.Values(), want.values(); !reflect.DeepEqual(got, w) {
		t.Fatalf("%s: Values = %v, want %v", what, got, w)
	}
	for _, v := range want.values() {
		if h.Count(v) != want.counts[v] {
			t.Fatalf("%s: Count(%d) = %d, want %d", what, v, h.Count(v), want.counts[v])
		}
	}
	if h.Max() != want.max() {
		t.Fatalf("%s: Max = %d, want %d", what, h.Max(), want.max())
	}
	wantMean := 0.0
	if want.total != 0 {
		wantMean = float64(want.sum) / float64(want.total)
	}
	if h.Mean() != wantMean {
		t.Fatalf("%s: Mean = %v, want %v", what, h.Mean(), wantMean)
	}
	got, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("%s: Marshal: %v", what, err)
	}
	if string(got) != want.json() {
		t.Fatalf("%s: JSON = %s, want %s", what, got, want.json())
	}
}

// trackerLocations spans several index pages, a page boundary, and the far
// end of the address space.
var trackerLocations = []Location{
	0x100, 0x104, 0x1000, 0x1ffc, 0x2000, 0x4020, 0x40000, 0xfffff000, 0xfffffffc,
}

// panics reports whether fn panics.
func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestTrackersMatchMapOracle drives the dense trackers (sharing one index,
// as the simulator does) and the map-based oracle with the same seeded
// random operation sequences and requires identical histograms throughout.
func TestTrackersMatchMapOracle(t *testing.T) {
	_, ct, wr := NewTrackers()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ct.Reset()
		wr.Reset()
		oc := &oracleContention{active: map[Location]map[int]int{}, hist: newOracleHistogram()}
		ow := &oracleWriteRuns{runs: map[Location]writeRun{}, hist: newOracleHistogram()}
		// Few procs and locations per seed so accesses overlap and nest.
		procs := 2 + rng.Intn(6)
		locs := trackerLocations[:2+rng.Intn(len(trackerLocations)-1)]
		var open [][2]int // in-progress Begins as (location index, proc)
		for step := 0; step < 2000; step++ {
			li, proc := rng.Intn(len(locs)), rng.Intn(procs)*9%64
			loc := locs[li]
			switch r := rng.Intn(100); {
			case r < 30:
				ct.Begin(loc, proc)
				oc.begin(loc, proc)
				open = append(open, [2]int{li, proc})
			case r < 55 && len(open) > 0:
				k := rng.Intn(len(open))
				o := open[k]
				open = append(open[:k], open[k+1:]...)
				ct.End(locs[o[0]], o[1])
				oc.end(locs[o[0]], o[1])
			case r < 57:
				if !oc.isActive(loc, proc) && !panics(func() { ct.End(loc, proc) }) {
					t.Fatalf("seed %d step %d: End(%#x, %d) without Begin did not panic", seed, step, loc, proc)
				}
			case r < 97:
				write := rng.Intn(3) > 0
				wr.Access(loc, proc, write)
				ow.access(loc, proc, write)
			case r < 99:
				wr.Flush()
				ow.flush()
			default:
				ct.Reset()
				wr.Reset()
				clear(oc.active)
				oc.hist.reset()
				clear(ow.runs)
				ow.hist.reset()
				open = open[:0]
			}
			sameHistogram(t, fmt.Sprintf("seed %d step %d contention", seed, step), ct.Histogram(), oc.hist)
			sameHistogram(t, fmt.Sprintf("seed %d step %d write runs", seed, step), wr.Histogram(), ow.hist)
		}
		wr.Flush()
		ow.flush()
		sameHistogram(t, fmt.Sprintf("seed %d final write runs", seed), wr.Histogram(), ow.hist)
	}
}

// TestContentionNestedEndsBalance pins the nesting semantics the proc-set
// representation must keep: a proc's nested Begins count once, its
// matching Ends all succeed, and only the last one removes it.
func TestContentionNestedEndsBalance(t *testing.T) {
	c := NewContentionTracker()
	for i := 0; i < 3; i++ {
		c.Begin(0xfffffffc, 5)
	}
	c.Begin(0xfffffffc, 6) // sees 2
	for i := 0; i < 3; i++ {
		c.End(0xfffffffc, 5)
	}
	c.Begin(0xfffffffc, 7) // 5 is gone: sees 2 (6 and 7)
	if got := c.Histogram().String(); got != "1:3 2:2" {
		t.Fatalf("histogram = %s, want 1:3 2:2", got)
	}
	if !panics(func() { c.End(0xfffffffc, 5) }) {
		t.Fatal("End after balanced Ends did not panic")
	}
	if !panics(func() { c.Begin(0x100, 64) }) {
		t.Fatal("proc 64 accepted")
	}
}

// TestTrackersShareIndex checks that trackers made together name a
// location with one id, and that Reset forgets it.
func TestTrackersShareIndex(t *testing.T) {
	x, ct, wr := NewTrackers()
	ct.Begin(0x2000, 1)
	wr.Access(0x100, 1, true)
	if id, ok := x.Lookup(0x2000); !ok || id != 0 {
		t.Fatalf("Lookup(0x2000) = %d, %v; want 0, true", id, ok)
	}
	if id := x.Intern(0x100); id != 1 {
		t.Fatalf("Intern(0x100) = %d, want 1", id)
	}
	ct.Reset()
	wr.Reset()
	if _, ok := x.Lookup(0x2000); ok {
		t.Fatal("Reset kept location ids")
	}
	if id := x.Intern(0x100); id != 0 {
		t.Fatalf("first Intern after Reset = %d, want 0", id)
	}
}

// histValues mixes dense-range values with negatives and values at and
// beyond the dense bound.
var histValues = []int{0, 1, 2, 63, 64, denseLimit - 1, denseLimit, denseLimit + 7, 1 << 40, -1, -5, -(1 << 40)}

// TestHistogramMatchesMapOracle checks Add/AddN/Merge/Reset and every read
// accessor, JSON included, against the map-based histogram over values
// inside and outside the dense range.
func TestHistogramMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, other := NewHistogram(), NewHistogram()
		want, wantOther := newOracleHistogram(), newOracleHistogram()
		pick := func() int {
			if rng.Intn(2) == 0 {
				return rng.Intn(20)
			}
			return histValues[rng.Intn(len(histValues))]
		}
		for step := 0; step < 300; step++ {
			v := pick()
			switch r := rng.Intn(20); {
			case r < 8:
				h.Add(v)
				want.addN(v, 1)
			case r < 12:
				n := uint64(rng.Intn(4))
				h.AddN(v, n)
				want.addN(v, n)
			case r < 16:
				other.Add(v)
				wantOther.addN(v, 1)
			case r < 18:
				h.Merge(other)
				for ov, n := range wantOther.counts {
					want.addN(ov, n)
				}
			case r < 19:
				other.Reset()
				wantOther.reset()
			default:
				h.Reset()
				want.reset()
			}
			what := fmt.Sprintf("seed %d step %d", seed, step)
			sameHistogram(t, what, h, want)
			data, _ := json.Marshal(h)
			back := NewHistogram()
			if err := json.Unmarshal(data, back); err != nil {
				t.Fatalf("%s: Unmarshal: %v", what, err)
			}
			sameHistogram(t, what+" round trip", back, want)
		}
	}
}

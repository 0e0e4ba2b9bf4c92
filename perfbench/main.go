// Command perfbench is the repository benchmark. It drives the simulator's
// public entry points from outside — exper.SweepSlots, MachineSlot.Machine,
// Point.RunOn, report.Collect, serve.New(...).Handler().ServeHTTP and
// mc.Check — over four workloads, checks every output, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload grid-synth --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer ledger instead (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's settings, fixed before set-up starts.
type options struct {
	seed    uint64
	seconds float64
	width   int // sweep width and serve worker count: the host's CPU count
	traced  bool
}

// budget is the measured-phase duration.
func (o options) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// minPasses is the fewest measured passes a closed-loop workload makes
// however short the budget: one, plus a traced one in traced runs.
func minPasses(o options) uint64 {
	if o.traced {
		return 2
	}
	return 1
}

// workload is one benchmark input family. setup builds the run's inputs
// from the seed (timed as setup_s); the returned runner measures them.
type workload struct {
	name  string
	why   string
	setup func(o options) (runner, error)
}

type runner interface {
	run(o options) *outcome
}

var workloads = []workload{
	{"grid-synth", "Figs 3-5 plan: many short points on one hot location; per-run fixed costs and the contended protocol paths", setupSynth},
	{"grid-real", "Fig 6 real apps: few long points over many lines; per-event costs and the stats trackers", setupReal},
	{"serve-zipf", "open-loop Zipf GET /v1/sim over a catalog larger than the result cache; hit, miss/fill and eviction paths", setupServe},
	{"mc-exhaust", "fixed 3-node model-checker configs; the only load on proto/mc", setupMC},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRepeats is how many times set-up runs; setup_s is their median.
// Each set-up starts cold and takes about a millisecond; single timings of
// it spread by a third within one run, so the median needs many.
const setupRepeats = 61

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	problems          []string // first few failure descriptions
	rssMB             float64  // peak resident memory of the measured phase

	e2e    metrics // contract metrics, generic across workloads (trace 0)
	detail metrics // the workload's own named metrics (printed before the result)
	layers metrics // per-layer ledger (trace 1)
	extra  map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: metrics{}, detail: metrics{}, layers: metrics{}, extra: map[string]any{}}
}

// fail records one failed check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// result is the final stdout line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured-phase duration")
	trace := fs.Int("trace", 0, "1 runs the traced ledger instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, width: runtime.NumCPU(), traced: *trace == 1}
	if o.seed == 0 {
		o.seed = 1 << 63 // keep every derived seed nonzero
	}

	steal0, total0 := cpuTicks()

	// Set-up runs setupRepeats times; the last runner is the one measured,
	// and each earlier one is closed before the next set-up starts. Every
	// set-up starts from the same state: two collections empty the
	// sync.Pools (the first moves pooled objects to the victim cache, the
	// second drops them), so each set-up builds what it uses. The collector
	// is off while a set-up is timed: whether a cycle lands inside the few
	// milliseconds of set-up is an accident of heap history. Set-up runs on
	// one processor: Table 1's machine hands off between its processors'
	// goroutines, and a handoff to the other processor waits on it being
	// scheduled, which on a shared VM doubles the time at random.
	var r runner
	setups := make([]float64, 0, setupRepeats)
	gcPercent := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	for i := 0; i < setupRepeats; i++ {
		closeUnmeasured(r)
		runtime.GC()
		runtime.GC()
		start := time.Now()
		var err error
		r, err = w.setup(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", w.name, err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gcPercent)
	out := r.run(o)
	setupS := median(setups)
	out.e2e.set("setup_s", setupS, "s")
	out.detail.set("setup_s", setupS, "s")
	out.e2e.set("peak_rss_mb", out.rssMB, "MB")
	out.detail.set("peak_rss_mb", out.rssMB, "MB")
	out.detail.set("failed_frac", float64(out.failed)/float64(max(out.attempted, 1)), "ratio")

	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	prov := provenance(w, o)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// Time the hypervisor ran someone else on this VM's processors:
		// a run with a large share measured a slower machine.
		prov["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	for k, v := range out.extra {
		prov[k] = v
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": prov, "detail": out.detail}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	if o.traced {
		res.Metrics = out.layers
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// closeUnmeasured releases what an unmeasured set-up holds (serve-zipf's
// server and its workers); r may be nil.
func closeUnmeasured(r runner) {
	if c, ok := r.(interface{ close() }); ok {
		c.close()
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// provenance is recorded with every result so two runs can be compared
// only when they ran the same load on the same kind of host.
func provenance(w workload, o options) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"why":        w.why,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"traced":     o.traced,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"width":      o.width,
		"serve": map[string]any{
			"nominal_rps":   nominalRate,
			"ladder_rps":    ladderRates,
			"p99_limit_ms":  p99LimitMS,
			"catalog":       catalogSize,
			"cache_entries": cacheEntries,
			"zipf_s":        zipfS,
			"sat_clients":   satClients * o.width,
		},
	}
}

// cpuTicks returns the steal and total CPU ticks of /proc/stat's summary
// line, or zeros where it is unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// freshHeap collects garbage and returns the freed memory to the OS, so
// every measured pass starts from the same heap and resident set.
func freshHeap() { debug.FreeOSMemory() }

// rssEvery is the resident-set sampling interval.
const rssEvery = 5 * time.Millisecond

// rssSampler records the process's resident set while a measured phase
// runs and keeps each window's peak, a window being one second or, for a
// sampler started with startRSSPerCut, the span between two cut calls. Its
// result, the median of those per-window peaks, is the run's peak resident
// memory under load without hanging on the single sample a
// garbage-collection cycle happened to inflate.
type rssSampler struct {
	stop  chan struct{}
	cuts  chan struct{}
	done  chan struct{}
	peaks []float64 // MB, one per window; read after done closes
}

func startRSS() *rssSampler { return sampleRSS(true) }

// startRSSPerCut starts a sampler whose windows end only at cut calls, for
// a workload whose passes are all alike but whose seconds are not.
func startRSSPerCut() *rssSampler { return sampleRSS(false) }

func sampleRSS(perSecond bool) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), cuts: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		var peak float64
		window := time.Now()
		closeWindow := func(now time.Time) {
			if peak > 0 {
				s.peaks = append(s.peaks, peak)
			}
			peak, window = 0, now
		}
		for {
			select {
			case <-s.stop:
				closeWindow(time.Now())
				return
			case <-s.cuts:
				closeWindow(time.Now())
			case now := <-t.C:
				peak = math.Max(peak, rssMB())
				if perSecond && now.Sub(window) >= time.Second {
					closeWindow(now)
				}
			}
		}
	}()
	return s
}

// cut ends the current window.
func (s *rssSampler) cut() { s.cuts <- struct{}{} }

// finish stops sampling and returns the median per-second peak in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	if len(s.peaks) == 0 {
		return rssMB()
	}
	return median(s.peaks)
}

// rssMB is the process's current resident set in MB (/proc/self/statm),
// or the Go runtime's mapped-and-unreleased memory where that is absent.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		var size, resident float64
		if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
			return resident * float64(os.Getpagesize()) / (1 << 20)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}

// ------------------------------------------------------------ helpers --

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitmix is a tiny deterministic generator: every input is derived from
// the run's seed through it, so the same seed gives the same inputs on
// every Go version.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// float returns a value in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// shuffle permutes idx in place (Fisher-Yates).
func (s *splitmix) shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := s.intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// fnv accumulates a 64-bit FNV-1a digest over integers.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			*h ^= fnv(byte(v >> (8 * i)))
			*h *= 1099511628211
		}
	}
}

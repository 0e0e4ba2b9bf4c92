package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dsm/internal/exper"
	"dsm/internal/report"
	"dsm/internal/serve"
)

// The serve-zipf load is fixed by these constants so that two commits of a
// comparison run identical load; they are recorded in every result's
// provenance. The skew is the repository's established serving load
// (internal/hostbench's zipf fleet cell and the dsmload example use
// s = 1.2). The rest are this benchmark's choices, sized on a two-vCPU
// host: the catalog is 48 specs per catalog app; the cache holds a third
// of it, so fills and evictions run beside hits; the nominal rate is
// about a tenth of the saturated throughput, so its rung measures latency
// without queueing; the p99 limit is about ten times the sequential p99.
const (
	catalogSize  = 384     // distinct specs requests are drawn from
	cacheEntries = 128     // result-cache bound: a third of the catalog
	zipfS        = 1.2     // popularity skew
	nominalRate  = 1000    // requests/s of the rung req_* latencies come from
	p99LimitMS   = 25.0    // latency limit a ladder rung must meet
	serveQueue   = 1 << 14 // deep enough that an overloaded rung queues instead of answering 429

	// failedLatencyMS stands in for a failed request's latency: a failure
	// misses any limit.
	failedLatencyMS = 1e9
)

// ladderRates are the open-loop probe rungs, ascending (see interpolateRate).
var ladderRates = []float64{2830, 3360, 4000, 4760, 5660, 6730, 8000, 9510}

// Phase lengths as shares of --seconds; the ladder takes at most
// len(ladderRates) probe shares, so the shares add up to 1.
const (
	sequentialShare = 0.25
	nominalShare    = 0.20
	probeShare      = 0.05
	saturateShare   = 0.15

	// warmRequests is the warm-up's length: enough single-client requests
	// to fill the result cache several times over.
	warmRequests = 3000
)

// The closed-loop phases draw keys from streams of streamKeys Zipf draws;
// saturation runs satClients clients per processor and reports the median
// over satWindows windows.
const (
	streamKeys = 1 << 16
	satClients = 8
	satWindows = 6
)

// serveRequest is one scheduled request.
type serveRequest struct {
	due  time.Duration // since the rung's start
	spec int           // catalog index
	gzip bool
}

// serveInputs is the generated load: the catalog, its request URLs, and
// the popularity sampler's permutation.
type serveInputs struct {
	specs []serve.Spec
	urls  []string
	rank  []int // popularity rank -> catalog index
	cdf   []float64
	seed  uint64
}

// catalogShape is one app's share of the catalog: the processor counts
// and rounds its specs cycle through.
type catalogShape struct {
	app    string
	procs  []int
	rounds []int
}

// catalogShapes are the pattern-driven apps the catalog draws from. The
// heavier structures (RCU, barriers) stay small so one miss stays within a
// few ms.
var catalogShapes = []catalogShape{
	{"counter", []int{4, 8, 16}, []int{2, 3, 4, 5, 6}},
	{"tts", []int{4, 8, 16}, []int{2, 3, 4, 5, 6}},
	{"mcs", []int{4, 8, 16}, []int{2, 3, 4, 5, 6}},
	{"msqueue", []int{4, 8, 16}, []int{2, 3, 4, 5, 6}},
	{"stack", []int{4, 8, 16}, []int{2, 3, 4, 5, 6}},
	{"rcu", []int{4}, []int{2}},
	{"tournament", []int{4}, []int{2, 3}},
	{"dissemination", []int{4, 8}, []int{2, 3}},
}

// serveCatalog draws catalogSize distinct specs: the synthetic counters
// and the workload-library structures at up to 16 processors. It is
// stratified — an equal share per app, interleaved (spec k*len(shapes)+a
// is app a's k-th), with processor counts, rounds, policies and
// primitives cycled within each app — so its simulation cost barely moves
// with the seed, which picks contention, write run and simulation seed.
func serveCatalog(seed uint64) ([]serve.Spec, error) {
	pols := []string{"INV", "UPD", "UNC"}
	prims := []string{"FAP", "CAS", "LLSC"}
	rng := splitmix(seed ^ 0x5e12e)
	seen := map[string]bool{}
	perApp := catalogSize / len(catalogShapes)
	byApp := make([][]serve.Spec, len(catalogShapes))
	for a, sh := range catalogShapes {
		for k := 0; len(byApp[a]) < perApp; k++ {
			// k in mixed radix: procs, then rounds, then policy, then primitive.
			r := k / len(sh.procs)
			sp := serve.Spec{
				App:        sh.app,
				Procs:      sh.procs[k%len(sh.procs)],
				Rounds:     sh.rounds[r%len(sh.rounds)],
				Policy:     pols[(r/len(sh.rounds))%len(pols)],
				Prim:       prims[(r/len(sh.rounds)/len(pols))%len(prims)],
				Contention: 1 + rng.intn(4),
				Seed:       uint64(1 + rng.intn(1<<20)),
			}
			if sp.Contention == 1 {
				sp.WriteRun = []float64{1, 1.5, 2, 3}[rng.intn(4)]
			}
			n, err := sp.Normalize()
			if err != nil {
				return nil, fmt.Errorf("catalog spec %+v: %w", sp, err)
			}
			if key := n.Key(); !seen[key] {
				seen[key] = true
				byApp[a] = append(byApp[a], n)
			}
		}
	}
	out := make([]serve.Spec, 0, catalogSize)
	for k := 0; k < perApp; k++ {
		for a := range byApp {
			out = append(out, byApp[a][k])
		}
	}
	return out, nil
}

// specURL renders a canonical spec as a GET /v1/sim request target.
func specURL(sp serve.Spec) string {
	q := url.Values{}
	q.Set("app", sp.App)
	q.Set("policy", sp.Policy)
	q.Set("prim", sp.Prim)
	if sp.Variant != "" {
		q.Set("cas", sp.Variant)
	}
	q.Set("procs", strconv.Itoa(sp.Procs))
	q.Set("c", strconv.Itoa(sp.Contention))
	if sp.WriteRun != 0 {
		q.Set("a", strconv.FormatFloat(sp.WriteRun, 'g', -1, 64))
	}
	q.Set("rounds", strconv.Itoa(sp.Rounds))
	q.Set("seed", strconv.FormatUint(sp.Seed, 10))
	return "/v1/sim?" + q.Encode()
}

func newServeInputs(seed uint64) (*serveInputs, error) {
	specs, err := serveCatalog(seed)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{specs: specs, seed: seed}
	for _, sp := range specs {
		in.urls = append(in.urls, specURL(sp))
	}
	in.popularity()
	return in, nil
}

// popularity assigns the catalog's Zipf ranks, stratified like the
// catalog: every block of len(catalogShapes) consecutive ranks holds one
// spec of each app, in a seeded order, so each app gets a near-equal share
// of the requests whatever the seed. The CDF weighs rank k by 1/k^s.
func (in *serveInputs) popularity() {
	stride := len(catalogShapes)
	blocks := len(in.specs) / stride
	rng := splitmix(in.seed ^ 0x2a1f)
	perm := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		rng.shuffle(p)
		return p
	}
	within := make([][]int, stride) // app -> its specs' block order
	for a := range within {
		within[a] = perm(blocks)
	}
	in.rank = make([]int, 0, len(in.specs))
	for b := 0; b < blocks; b++ {
		for _, a := range perm(stride) {
			in.rank = append(in.rank, within[a][b]*stride+a)
		}
	}
	in.cdf = make([]float64, len(in.rank))
	var sum float64
	for k := range in.cdf {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		in.cdf[k] = sum
	}
	for k := range in.cdf {
		in.cdf[k] /= sum
	}
}

// prefix is the load restricted to the catalog's first n specs.
func (in *serveInputs) prefix(n int) *serveInputs {
	p := &serveInputs{specs: in.specs[:n], urls: in.urls[:n], seed: in.seed}
	p.popularity()
	return p
}

// schedule is a rung's requests at a fixed rate over dur; stream separates
// the rungs' random draws.
func (in *serveInputs) schedule(rate float64, dur time.Duration, stream uint64) []serveRequest {
	n := int(rate * dur.Seconds())
	rng := splitmix(in.seed ^ stream*0x9e3779b97f4a7c15)
	reqs := make([]serveRequest, n)
	for i := range reqs {
		k := sort.SearchFloat64s(in.cdf, rng.float())
		reqs[i] = serveRequest{
			due:  time.Duration(float64(i) / rate * float64(time.Second)),
			spec: in.rank[min(k, len(in.rank)-1)],
			gzip: rng.next()&1 == 1,
		}
	}
	return reqs
}

func setupServe(o options) (runner, error) {
	if err := checkTable1(); err != nil {
		return nil, err
	}
	in, err := newServeInputs(o.seed)
	if err != nil {
		return nil, err
	}
	return &serveRun{in: in, srv: newServerSized(o, cacheEntries)}, nil
}

// newServerSized builds the server under test, one simulation worker per
// processor as dsmserve runs by default.
func newServerSized(o options, entries int) *serve.Server {
	return serve.New(serve.Config{Workers: o.width, Queue: serveQueue, CacheEntries: entries, Timeout: 30 * time.Second})
}

// close stops the server of a set-up that is not measured.
func (s *serveRun) close() { s.srv.Close() }

// serveRun is the serve-zipf workload ready to measure.
type serveRun struct {
	in  *serveInputs
	srv *serve.Server

	mu   sync.Mutex
	body map[int][]byte // catalog index -> identity body first served
	gz   map[int][]byte // catalog index -> gzip body already decoded and checked
}

// reqRec is one completed request.
type reqRec struct {
	lat     time.Duration // completion minus due time
	late    time.Duration // dispatch minus due time
	spec    int           // catalog index
	cache   string        // X-Cache
	problem string        // failed check, "" when the response is correct
	traced  bool
}

// rungResult summarizes one rung.
type rungResult struct {
	Rate    float64 `json:"rate_rps"`
	Sent    int     `json:"sent"`
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
	Backlog int     `json:"backlog_at_end"`
	Failed  int     `json:"failed"`
	Meets   bool    `json:"meets_limit"`

	recs []reqRec
}

// rung sends reqs on their schedule (open loop: each request runs on its
// own goroutine, dispatched at its due time whether or not earlier ones
// have finished), waits for every response, and checks each body. With tr
// non-nil every other request is traced.
func (s *serveRun) rung(reqs []serveRequest, rate float64, tr *tracer, idBase uint64, out *outcome) rungResult {
	recs := make([]reqRec, len(reqs))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].due)
		waitUntil(due)
		inflight.Add(1)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			var t *tracer
			if tr != nil && i%2 == 0 {
				t = tr
			}
			recs[i] = s.do(reqs[i], due, t, idBase+uint64(i))
		}(i, due)
	}
	backlog := int(inflight.Load())
	wg.Wait()

	r := rungResult{Rate: rate, Sent: len(reqs), Backlog: backlog, recs: recs}
	for _, rec := range recs {
		if rec.problem != "" {
			out.fail("%s", rec.problem)
			r.Failed++
		}
	}
	r.P50MS = latencyQuantile(recs, 0.5, nil)
	r.P99MS = latencyQuantile(recs, 0.99, nil)
	// No growing backlog: at the end of the schedule no more requests may
	// be outstanding than arrive within one latency limit.
	r.Meets = r.P99MS <= p99LimitMS && r.backlogMS() <= p99LimitMS
	return r
}

// backlogMS is the wait the rung's end-of-schedule backlog implies.
func (r rungResult) backlogMS() float64 { return 1000 * float64(r.Backlog) / r.Rate }

// saturate runs a closed loop for dur: clients goroutines each send their
// next request as soon as the previous one returns, drawing keys from the
// same Zipf stream. It returns completed requests per second — the
// throughput the server sustains when it is the bottleneck — as the median
// over satWindows equal windows, and every request's latency in ms,
// sorted.
func (s *serveRun) saturate(dur time.Duration, clients int, stream uint64, out *outcome) (float64, []float64) {
	keys := s.in.schedule(1, time.Duration(streamKeys)*time.Second, stream)
	var next atomic.Int64
	problems := make([][]string, clients)
	lats := make([][]float64, clients)
	done := make([][satWindows]int64, clients)
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				q := keys[int(next.Add(1)-1)%len(keys)]
				rec := s.do(q, time.Now(), nil, 0)
				w := int(time.Since(start) * satWindows / dur)
				if w >= satWindows {
					return
				}
				done[c][w]++
				lats[c] = append(lats[c], ms(rec.lat))
				if rec.problem != "" {
					problems[c] = append(problems[c], rec.problem)
				}
			}
		}(c)
	}
	wg.Wait()
	rates := make([]float64, satWindows)
	var lat []float64
	for c := range done {
		lat = append(lat, lats[c]...)
		for w, n := range done[c] {
			rates[w] += float64(n) * satWindows / dur.Seconds()
			out.attempted += n
		}
		for _, p := range problems[c] {
			out.fail("%s", p)
		}
	}
	sort.Float64s(lat)
	return median(rates), lat
}

// latencyQuantile is the q-quantile of the requests' latencies. A failed
// request counts as missing every limit. keep, when non-nil, selects the
// requests counted.
func latencyQuantile(recs []reqRec, q float64, keep func(reqRec) bool) float64 {
	var lat []float64
	for _, rec := range recs {
		if keep != nil && !keep(rec) {
			continue
		}
		l := ms(rec.lat)
		if rec.problem != "" {
			l = failedLatencyMS
		}
		lat = append(lat, l)
	}
	sort.Float64s(lat)
	return quantile(lat, q)
}

// wakeMargin is how early waitUntil's sleep ends: the host's wake-up
// latency, which the final spin absorbs so requests leave on time.
const wakeMargin = 100 * time.Microsecond

// waitUntil blocks the calling thread until t: a sleep to wakeMargin
// before t, then a spin. The sleep is a direct nanosleep because the
// runtime's timers overshoot sub-millisecond sleeps by up to a
// millisecond on a two-vCPU Linux VM.
func waitUntil(t time.Time) {
	if d := time.Until(t) - wakeMargin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
	}
}

// do sends one request in-process and checks the response.
func (s *serveRun) do(q serveRequest, due time.Time, tr *tracer, id uint64) reqRec {
	req, err := http.NewRequest(http.MethodGet, s.in.urls[q.spec], nil)
	if err != nil {
		panic(err) // the URL is generated; a parse failure is a benchmark bug
	}
	if q.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	w := httptest.NewRecorder()
	sent := time.Now()
	s.srv.Handler().ServeHTTP(w, req)
	done := time.Now()

	rec := reqRec{lat: done.Sub(due), late: sent.Sub(due), spec: q.spec, cache: w.Header().Get("X-Cache"), traced: tr != nil}
	if tr != nil {
		tr.add(
			span{ID: id, Name: "request", Start: tr.at(due), End: tr.at(done)},
			span{ID: id, Name: "serve.http", Parent: "request", Tag: rec.cache, Start: tr.at(sent), End: tr.at(done)},
		)
	}
	rec.problem = s.check(q, w)
	return rec
}

// check verifies status and body: every response for a key must equal the
// identity body first served for it, gzip responses after decoding (each
// distinct gzip body is decoded once; later ones compare bytes).
func (s *serveRun) check(q serveRequest, w *httptest.ResponseRecorder) string {
	if w.Code != http.StatusOK {
		return fmt.Sprintf("GET %s: status %d", s.in.urls[q.spec], w.Code)
	}
	body := w.Body.Bytes()
	gz := w.Header().Get("Content-Encoding") == "gzip"
	s.mu.Lock()
	defer s.mu.Unlock()
	if gz {
		if bytes.Equal(s.gz[q.spec], body) {
			return ""
		}
		s.gz[q.spec] = bytes.Clone(body)
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err == nil {
			body, err = io.ReadAll(zr)
		}
		if err != nil {
			return fmt.Sprintf("GET %s: gzip body: %v", s.in.urls[q.spec], err)
		}
	}
	ref, ok := s.body[q.spec]
	if !ok {
		s.body[q.spec] = bytes.Clone(body)
		return ""
	}
	if !bytes.Equal(ref, body) {
		return fmt.Sprintf("GET %s: body differs from the first response (gzip %v, cache %s)",
			s.in.urls[q.spec], gz, w.Header().Get("X-Cache"))
	}
	return ""
}

func (s *serveRun) run(o options) *outcome {
	out := newOutcome()
	defer s.srv.Close()
	s.body, s.gz = map[int][]byte{}, map[int][]byte{}
	budget := o.budget()
	phase := func(share float64) time.Duration { return time.Duration(share * float64(budget)) }

	// Untimed warm-up: one client fills the result cache in request order,
	// so the measured phases start from the same cache state every run.
	s.sequential(s.in.schedule(1, warmRequests*time.Second, 1), 0, out)

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	freshHeap()
	rss := startRSS()
	// One client, each request sent when the previous returns: service
	// latency with no queueing and no generator in the way.
	seqStart := s.srv.Metrics()
	seq := s.sequential(s.in.schedule(1, streamKeys*time.Second, 2), phase(sequentialShare), out)
	sort.Float64s(seq)

	before := s.srv.Metrics()
	nomReqs := s.in.schedule(nominalRate, phase(nominalShare), 3)
	nom := s.rung(nomReqs, nominalRate, tr, 1<<32, out)
	after := s.srv.Metrics()
	out.attempted += int64(nom.Sent)

	isHit := func(r reqRec) bool { return r.cache == "hit" }
	isMiss := func(r reqRec) bool { return r.cache == "miss" }
	out.detail.set("seq_p50_ms", quantile(seq, 0.5), "ms")
	out.detail.set("seq_p99_ms", quantile(seq, 0.99), "ms")
	out.detail.set("seq_requests", float64(len(seq)), "count")
	out.detail.set("req_p50_ms", nom.P50MS, "ms")
	out.detail.set("req_p99_ms", nom.P99MS, "ms")
	out.detail.set("hit_p99_ms", latencyQuantile(nom.recs, 0.99, isHit), "ms")
	out.detail.set("miss_p50_ms", latencyQuantile(nom.recs, 0.5, isMiss), "ms")
	out.detail.set("requests_timed", float64(nom.Sent), "count")
	// The measured cache hit ratios verify the traffic the skew and cache
	// size are meant to produce.
	out.detail.set("seq_hit_ratio", hitRatio(seqStart, before), "ratio")
	out.detail.set("req_hit_ratio", hitRatio(before, after), "ratio")

	if tr != nil {
		out.rssMB = rss.finish()
		s.ledger(out, o, tr, nom, before, after)
		return out
	}

	// Probe upward until a rung misses the limit.
	ladder := []rungResult{nom}
	for i, rate := range ladderRates {
		r := s.rung(s.in.schedule(rate, phase(probeShare), uint64(4+i)), rate, nil, 0, out)
		out.attempted += int64(r.Sent)
		ladder = append(ladder, r)
		if !r.Meets {
			break
		}
	}
	maxRate := interpolateRate(ladder)
	satStart := s.srv.Metrics()
	sat, satLat := s.saturate(phase(saturateShare), satClients*o.width, 100, out)
	out.detail.set("saturated_hit_ratio", hitRatio(satStart, s.srv.Metrics()), "ratio")
	out.detail.set("sat_p50_ms", quantile(satLat, 0.5), "ms")
	out.detail.set("sat_p99_ms", quantile(satLat, 0.99), "ms")
	out.rssMB = rss.finish()
	out.e2e.set("p50_ms", quantile(satLat, 0.5), "ms")
	out.e2e.set("p99_ms", quantile(satLat, 0.99), "ms")
	out.e2e.set("throughput_per_s", sat, "1/s")
	out.detail.set("max_rate_rps", maxRate, "1/s")
	out.detail.set("saturated_rps", sat, "1/s")
	out.extra["ladder"] = ladder
	return out
}

// hitRatio is the share of the requests between two snapshots that the
// result cache answered.
func hitRatio(before, after serve.Snapshot) float64 {
	return ratio(after.CacheHits-before.CacheHits, after.Requests-before.Requests)
}

// sequential sends keys one at a time, each when the previous returns,
// until they run out or, when dur > 0, dur has passed. It returns every
// request's latency in ms.
func (s *serveRun) sequential(keys []serveRequest, dur time.Duration, out *outcome) []float64 {
	var lat []float64
	start := time.Now()
	for _, q := range keys {
		if dur > 0 && time.Since(start) >= dur {
			break
		}
		rec := s.do(q, time.Now(), nil, 0)
		out.attempted++
		if rec.problem != "" {
			out.fail("%s", rec.problem)
		}
		lat = append(lat, ms(rec.lat))
	}
	return lat
}

// interpolateRate is the highest rate meeting the limit. Each rung's
// effective latency is its p99, or the wait its end-of-schedule backlog
// implies when that is larger (a growing backlog misses the limit too).
// The rate is interpolated linearly between the last rung that meets the
// limit and the first that misses it. A ladder that never misses reports
// its top rung; one whose first rung misses scales that rung's rate down
// by its latency's excess over the limit.
func interpolateRate(ladder []rungResult) float64 {
	eff := func(r rungResult) float64 { return math.Max(r.P99MS, r.backlogMS()) }
	for i, r := range ladder {
		y := eff(r)
		if y <= p99LimitMS {
			continue
		}
		if i == 0 {
			return r.Rate * p99LimitMS / y
		}
		lo := ladder[i-1]
		return lo.Rate + (p99LimitMS-eff(lo))/(y-eff(lo))*(r.Rate-lo.Rate)
	}
	return ladder[len(ladder)-1].Rate
}

// ledger fills the serve per-layer metrics from the traced nominal rung.
func (s *serveRun) ledger(out *outcome, o options, tr *tracer, nom rungResult, before, after serve.Snapshot) {
	var plain, traced []float64
	var late []float64
	for _, r := range nom.recs {
		late = append(late, ms(r.late))
		if r.cache != "hit" {
			continue
		}
		if r.traced {
			traced = append(traced, ms(r.lat))
		} else {
			plain = append(plain, ms(r.lat))
		}
	}
	sort.Float64s(late)
	st := tr.selfTimes()
	l := ledger{kind: "serve-zipf", spans: st}
	l.overhead = median(traced)/median(plain) - 1
	l.serve = serveLayer{
		requests:  after.Requests - before.Requests,
		hits:      after.CacheHits - before.CacheHits,
		evictions: after.CacheEvictions - before.CacheEvictions,
		coalesced: after.Coalesced - before.Coalesced,
		rejected:  after.Rejected - before.Rejected,
		genLateMS: quantile(late, 0.99),
	}
	// Every miss simulated one catalog spec; replaying the missed specs on
	// a private machine slot gives their exact layer counts (the run is
	// deterministic per spec), which the ledger reconciles against the
	// measured miss time.
	missCount := map[int]uint64{}
	for _, r := range nom.recs {
		if r.cache == "miss" {
			missCount[r.spec]++
		}
	}
	var slot exper.MachineSlot
	for k, n := range missCount {
		c := replayCounts(s.in.specs[k], &slot)
		for j := uint64(0); j < n; j++ {
			l.counts.add(c)
		}
	}
	if h := st["serve.http"]; h != nil && h.Tags["miss"] != nil {
		// Misses are traced on every other request: scale the traced miss
		// time up to the whole rung's miss count.
		tm := h.Tags["miss"]
		l.measured = time.Duration(float64(tm.Total) / float64(tm.Count) * float64(l.counts.points))
	}
	finishLedger(out, o, &l, tr)
}

// replayCounts runs one spec outside the server and reads its layer counts.
func replayCounts(sp serve.Spec, slot *exper.MachineSlot) counts {
	p := sp.Point()
	m := slot.Machine(exper.MachineConfig(p.Scale, p.Bar))
	res := p.RunOn(m)
	return pointCounts(m, res, report.Collect(m))
}

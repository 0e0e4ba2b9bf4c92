package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"dsm/internal/report"
)

// counts are exact per-layer work counts read from public accessors. For
// the grids and mc-exhaust they are per pass and repeat exactly.
type counts struct {
	points                                              uint64
	events, cycles                                      uint64
	procOps, barriers                                   uint64
	requests, localHits, naks, retries, invals, updates uint64
	writebacks, messages, flits, injectWait, ejectWait  uint64
	memAccesses, memQueueWait, evictions                uint64
	contSamples, writeRuns                              uint64
	mcStates, mcTerminals                               uint64
}

func (c *counts) addReport(r *report.Report) {
	p, n := r.Protocol, r.Network
	c.procOps += r.ProcOps
	c.requests += p.Requests
	c.localHits += p.LocalHits
	c.naks += p.Naks
	c.retries += p.Retries
	c.invals += p.Invals
	c.updates += p.Updates
	c.writebacks += p.Writebacks
	c.messages += n.Messages
	c.flits += n.Flits
	c.injectWait += n.InjectWait
	c.ejectWait += n.EjectWait
	c.memAccesses += r.Memory.Accesses
	c.memQueueWait += r.Memory.QueueWait
	c.evictions += r.Cache.Evictions
	c.contSamples += r.Contention.Total()
	c.writeRuns += r.WriteRunTotal
}

func (c *counts) add(o counts) {
	c.points += o.points
	c.events += o.events
	c.cycles += o.cycles
	c.procOps += o.procOps
	c.barriers += o.barriers
	c.requests += o.requests
	c.localHits += o.localHits
	c.naks += o.naks
	c.retries += o.retries
	c.invals += o.invals
	c.updates += o.updates
	c.writebacks += o.writebacks
	c.messages += o.messages
	c.flits += o.flits
	c.injectWait += o.injectWait
	c.ejectWait += o.ejectWait
	c.memAccesses += o.memAccesses
	c.memQueueWait += o.memQueueWait
	c.evictions += o.evictions
	c.contSamples += o.contSamples
	c.writeRuns += o.writeRuns
	c.mcStates += o.mcStates
	c.mcTerminals += o.mcTerminals
}

// serveLayer is the serving layer's own counters over the traced rung.
type serveLayer struct {
	requests, hits, evictions, coalesced, rejected uint64
	genLateMS                                      float64
}

// ledger is a traced run's raw material: the workload's counts and spans,
// and the host time the per-layer costs must explain.
type ledger struct {
	kind      string
	counts    counts
	spans     map[string]*spanStat
	measured  time.Duration // host time to reconcile, per pass (grids, mc) or per rung (serve)
	overhead  float64       // traced over untraced unit time, minus one
	slotReuse float64
	serve     serveLayer
}

// finishLedger runs the isolation drives, fills span groups the workload
// lacks from short calibration runs, and emits every per-layer metric plus
// the reconciliation of unit cost x count against measured host time.
func finishLedger(out *outcome, o options, l *ledger, tr *tracer) {
	u := runDrives(o.width)
	grid, reuse := l.spans, l.slotReuse
	if grid["exper.run"] == nil {
		grid, reuse = miniGrid(o)
	}
	srv, sl := l.spans, l.serve
	if srv["serve.http"] == nil {
		srv, sl = miniServe(o)
	}
	mcs, mcc := l.spans, l.counts
	if mcs["mc.check"] == nil {
		mcs, mcc = miniMC(o)
	}

	c := l.counts
	L := out.layers
	L.set("machine.ns_per_handoff", u.nsHandoff, "ns")
	L.set("machine.run_start_us", u.runStartUS, "us")
	L.set("machine.proc_ops", float64(c.procOps), "count")
	L.set("machine.barriers", float64(c.barriers), "count")
	L.set("stats.ns_per_access.hot", u.nsAccessHot, "ns")
	L.set("stats.ns_per_access.spread", u.nsAccessSpr, "ns")
	L.set("stats.contention_samples", float64(c.contSamples), "count")
	L.set("stats.write_runs", float64(c.writeRuns), "count")
	// A local hit costs a fraction of a request that leaves the node, so
	// the per-request cost is weighted by the workload's own hit ratio.
	hitRatio := ratio(c.localHits, c.requests)
	L.set("core.ns_per_request", hitRatio*u.nsLocalHit+(1-hitRatio)*u.nsRemote, "ns")
	L.set("core.ns_per_local_hit", u.nsLocalHit, "ns")
	L.set("core.ns_per_remote_request", u.nsRemote, "ns")
	L.set("core.requests", float64(c.requests), "count")
	L.set("core.local_hit_ratio", hitRatio, "ratio")
	L.set("core.naks", float64(c.naks), "count")
	L.set("core.retries", float64(c.retries), "count")
	L.set("core.invals", float64(c.invals), "count")
	L.set("core.updates", float64(c.updates), "count")
	L.set("core.writebacks", float64(c.writebacks), "count")
	L.set("sim.ns_per_event", u.nsEvent, "ns")
	L.set("sim.events", float64(c.events), "count")
	L.set("sim.cycles", float64(c.cycles), "cycles")
	L.set("mesh.ns_per_msg", u.nsMsg, "ns")
	L.set("mesh.messages", float64(c.messages), "count")
	L.set("mesh.flits", float64(c.flits), "count")
	L.set("mesh.inject_wait_cycles", float64(c.injectWait), "cycles")
	L.set("mesh.eject_wait_cycles", float64(c.ejectWait), "cycles")
	L.set("mem.accesses", float64(c.memAccesses), "count")
	L.set("mem.queue_wait_cycles", float64(c.memQueueWait), "cycles")
	L.set("cache.evictions", float64(c.evictions), "count")

	slot, run, collect := grid["exper.slot"].meanSelf(), grid["exper.run"].meanSelf(), grid["report.collect"].meanSelf()
	L.set("exper.slot_us", us(slot), "us")
	L.set("exper.run_us", us(run), "us")
	L.set("exper.slot_reuse_ratio", reuse, "ratio")
	L.set("report.collect_us", us(collect), "us")

	http := srv["serve.http"]
	L.set("serve.hit_us", us(http.Tags["hit"].meanSelf()), "us")
	L.set("serve.miss_us", us(http.Tags["miss"].meanSelf()), "us")
	L.set("serve.encode_us", u.encodeUS, "us")
	L.set("serve.hit_ratio", ratio(sl.hits, sl.requests), "ratio")
	L.set("serve.evictions", float64(sl.evictions), "count")
	L.set("serve.coalesced", float64(sl.coalesced), "count")
	L.set("serve.rejected", float64(sl.rejected), "count")
	L.set("serve.gen_late_ms", sl.genLateMS, "ms")

	// Spans are tagged by case, so the case count gives the traced passes.
	chk := mcs["mc.check"]
	perPass := chk.Total / time.Duration(max(chk.Count/int64(max(len(chk.Tags), 1)), 1))
	L.set("mc.states", float64(mcc.mcStates), "count")
	L.set("mc.terminals", float64(mcc.mcTerminals), "count")
	L.set("mc.states_per_s", float64(mcc.mcStates)/perPass.Seconds(), "1/s")

	// Reconciliation: unit cost x count per layer against measured host time.
	type row struct {
		layer string
		count float64
		unit  float64 // ns
	}
	var rows []row
	switch l.kind {
	case "mc-exhaust":
		cases := float64(len(chk.Tags)) // checks per pass
		rows = append(rows, row{"mc.check", cases, float64(perPass) / cases})
	default:
		access := u.nsAccessSpr
		if l.kind == "grid-synth" {
			access = u.nsAccessHot
		}
		pts := float64(c.points)
		rows = append(rows,
			row{"exper.slot", pts, float64(slot)},
			row{"report.collect", pts, float64(collect)},
			row{"machine.run_start", pts, u.runStartUS * 1e3},
			row{"machine.handoffs", float64(c.procOps + c.barriers), u.nsHandoff},
			row{"sim.events", float64(c.events), u.nsEvent},
			row{"mesh.messages", float64(c.messages), u.nsMsg},
			row{"core.local_hits", float64(c.localHits), u.nsLocalHit},
			row{"core.remote_requests", float64(c.requests - c.localHits), u.nsRemote},
			row{"stats.accesses", float64(c.contSamples), access},
		)
		if l.kind == "serve-zipf" {
			rows = append(rows, row{"serve.encode", pts, u.encodeUS * 1e3})
		}
	}
	var explained float64
	fmt.Fprintf(os.Stderr, "\nledger %s: unit cost x count against %.3f ms measured host time\n", l.kind, ms(l.measured))
	fmt.Fprintf(os.Stderr, "%-20s %14s %12s %12s %8s\n", "layer", "count", "unit_ns", "total_ms", "share")
	for _, r := range rows {
		t := r.count * r.unit
		explained += t
		fmt.Fprintf(os.Stderr, "%-20s %14.0f %12.1f %12.3f %7.1f%%\n", r.layer, r.count, r.unit, t/1e6, 100*t/float64(l.measured))
	}
	residual := 0.0 // nothing measured (no traced miss) leaves nothing to explain
	if l.measured > 0 {
		residual = 1 - explained/float64(l.measured)
	}
	fmt.Fprintf(os.Stderr, "%-20s %14s %12s %12.3f %7.1f%%\n\n", "unexplained", "", "", (float64(l.measured)-explained)/1e6, 100*residual)
	printSelfTimes(os.Stderr, l.spans)
	L.set("layers.residual_frac", residual, "ratio")
	L.set("trace.overhead_frac", l.overhead, "ratio")

	if path, err := tr.write(os.Getenv("PERFBENCH_TRACE_DIR"), fmt.Sprintf("trace-%s-seed%d.jsonl", l.kind, o.seed)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else if path != "" {
		out.extra["trace_file"] = path
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// miniServe is a traced calibration of the serving layer for workloads
// that send no requests: a short open-loop rung over a 48-spec slice of
// the catalog and a 16-entry cache.
func miniServe(o options) (map[string]*spanStat, serveLayer) {
	in, err := newServeInputs(o.seed)
	if err != nil {
		panic(err) // the catalog is generated; an invalid spec is a benchmark bug
	}
	in = in.prefix(48)
	s := &serveRun{in: in, body: map[int][]byte{}, gz: map[int][]byte{}}
	s.srv = newServerSized(o, 16)
	defer s.srv.Close()
	tr := newTracer()
	scratch := newOutcome()
	before := s.srv.Metrics()
	r := s.rung(in.schedule(nominalRate, 1500*time.Millisecond, 99), nominalRate, tr, 0, scratch)
	after := s.srv.Metrics()
	late := make([]float64, len(r.recs))
	for i, rec := range r.recs {
		late[i] = ms(rec.late)
	}
	sort.Float64s(late)
	return tr.selfTimes(), serveLayer{
		requests:  after.Requests - before.Requests,
		hits:      after.CacheHits - before.CacheHits,
		evictions: after.CacheEvictions - before.CacheEvictions,
		coalesced: after.Coalesced - before.Coalesced,
		rejected:  after.Rejected - before.Rejected,
		genLateMS: quantile(late, 0.99),
	}
}

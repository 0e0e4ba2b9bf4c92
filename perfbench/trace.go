package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it drives. Spans of one point, request or config
// share an id; parent names the enclosing span of the same id ("" for the
// root).
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall time to the tracer's clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

// add appends one unit's spans under the lock (a batch per point or
// request keeps lock traffic to one acquisition per unit).
func (t *tracer) add(batch ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, batch...)
	t.mu.Unlock()
}

// selfTimes aggregates, per span name, the count, total duration and total
// self time: a span's duration minus the durations of its children.
type spanStat struct {
	Count int64
	Total time.Duration
	Self  time.Duration
	Tags  map[string]*spanStat
}

func (s *spanStat) meanSelf() time.Duration {
	if s == nil || s.Count == 0 {
		return 0
	}
	return s.Self / time.Duration(s.Count)
}

func (t *tracer) selfTimes() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Children's durations per (id, parent name).
	type key struct {
		id   uint64
		name string
	}
	child := make(map[key]time.Duration)
	for _, s := range t.spans {
		if s.Parent != "" {
			child[key{s.ID, s.Parent}] += s.dur()
		}
	}
	out := make(map[string]*spanStat)
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{Tags: map[string]*spanStat{}}
			out[s.Name] = st
		}
		self := s.dur() - child[key{s.ID, s.Name}]
		st.Count++
		st.Total += s.dur()
		st.Self += self
		if s.Tag != "" {
			ts := st.Tags[s.Tag]
			if ts == nil {
				ts = &spanStat{}
				st.Tags[s.Tag] = ts
			}
			ts.Count++
			ts.Total += s.dur()
			ts.Self += self
		}
	}
	return out
}

// write dumps the spans as JSON lines into dir (skipped when dir is empty).
func (t *tracer) write(dir, name string) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// printSelfTimes renders the self-time table to w.
func printSelfTimes(w io.Writer, st map[string]*spanStat) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %10s %14s %14s\n", "span", "count", "mean_us", "self_mean_us")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "%-22s %10d %14.2f %14.2f\n", n, s.Count,
			us(s.Total/time.Duration(s.Count)), us(s.meanSelf()))
		tags := make([]string, 0, len(s.Tags))
		for t := range s.Tags {
			tags = append(tags, t)
		}
		sort.Strings(tags)
		for _, t := range tags {
			ts := s.Tags[t]
			fmt.Fprintf(w, "  %-20s %10d %14.2f %14.2f\n", "["+t+"]", ts.Count,
				us(ts.Total/time.Duration(ts.Count)), us(ts.meanSelf()))
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

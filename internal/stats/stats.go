// Package stats implements the measurement machinery of the paper's
// methodology: integer histograms, the contention tracker behind the
// figure-2 histograms ("number of processors contending to access an
// atomically accessed shared location at the beginning of each access"),
// the write-run-length tracker of Eggers & Katz as used in section 4.2, and
// the serialized-message-chain recorder behind Table 1.
package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// denseLimit bounds the values a Histogram counts in its dense slice:
// values in [0, denseLimit) index it directly, anything else goes to an
// overflow map. Every histogram the simulator records on the reference
// path — contention levels (at most 64 processors), message-chain lengths,
// write-run lengths — stays far below the bound, so the map is never made.
const denseLimit = 1024

// Histogram counts occurrences of small integer values.
type Histogram struct {
	dense []uint64       // dense[v] counts v; grows on demand up to denseLimit
	over  map[int]uint64 // values outside [0, denseLimit); nil until needed
	total uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Reset forgets all samples, keeping the dense slice's storage.
func (h *Histogram) Reset() {
	h.dense = h.dense[:0]
	clear(h.over)
	h.total = 0
}

// Add records one occurrence of v.
func (h *Histogram) Add(v int) {
	if uint(v) < uint(len(h.dense)) {
		h.dense[v]++
		h.total++
		return
	}
	h.AddN(v, 1)
}

// AddN records n occurrences of v.
func (h *Histogram) AddN(v int, n uint64) {
	if n == 0 {
		return
	}
	switch {
	case uint(v) < uint(len(h.dense)):
		h.dense[v] += n
	case v >= 0 && v < denseLimit:
		h.dense = extend(h.dense, v+1)
		h.dense[v] += n
	default:
		if h.over == nil {
			h.over = make(map[int]uint64)
		}
		h.over[v] += n
	}
	h.total += n
}

// Count returns the number of occurrences of v.
func (h *Histogram) Count(v int) uint64 {
	if uint(v) < uint(len(h.dense)) {
		return h.dense[v]
	}
	return h.over[v]
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the average sample, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum int64
	for v, n := range h.dense {
		sum += int64(v) * int64(n)
	}
	for v, n := range h.over {
		sum += int64(v) * int64(n)
	}
	return float64(sum) / float64(h.total)
}

// Max returns the largest recorded value, or 0 for an empty histogram.
func (h *Histogram) Max() int {
	max, found := 0, false
	for v := range h.over {
		if !found || v > max {
			max, found = v, true
		}
	}
	for v := len(h.dense) - 1; v >= 0; v-- {
		if h.dense[v] != 0 {
			if !found || v > max {
				max = v
			}
			break
		}
	}
	return max
}

// Percent returns the percentage of samples equal to v.
func (h *Histogram) Percent(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return 100 * float64(h.Count(v)) / float64(h.total)
}

// Values returns the recorded values in increasing order.
func (h *Histogram) Values() []int {
	n := len(h.over)
	for _, c := range h.dense {
		if c != 0 {
			n++
		}
	}
	vs := make([]int, 0, n)
	for v, c := range h.dense {
		if c != 0 {
			vs = append(vs, v)
		}
	}
	if len(h.over) > 0 {
		for v := range h.over {
			vs = append(vs, v)
		}
		sort.Ints(vs)
	}
	return vs
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	h.dense = extend(h.dense, len(other.dense))
	for v, n := range other.dense {
		h.AddN(v, n)
	}
	for v, n := range other.over {
		h.AddN(v, n)
	}
}

// histogramBin is one value/count pair of the JSON encoding.
type histogramBin struct {
	V int    `json:"v"`
	N uint64 `json:"n"`
}

// MarshalJSON encodes the histogram as an array of {"v":value,"n":count}
// bins in increasing value order, so the encoding of a given histogram is
// byte-stable (map iteration order never leaks into the output).
func (h *Histogram) MarshalJSON() ([]byte, error) {
	vs := h.Values()
	bins := make([]histogramBin, 0, len(vs))
	for _, v := range vs {
		bins = append(bins, histogramBin{V: v, N: h.Count(v)})
	}
	return json.Marshal(bins)
}

// UnmarshalJSON rebuilds the histogram from its bin array, restoring the
// derived total.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var bins []histogramBin
	if err := json.Unmarshal(data, &bins); err != nil {
		return err
	}
	h.Reset()
	for _, b := range bins {
		h.AddN(b.V, b.N)
	}
	return nil
}

// String renders "v:count" pairs in increasing value order.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, v := range h.Values() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", v, h.Count(v))
	}
	return b.String()
}

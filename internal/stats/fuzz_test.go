package stats

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzHistogramJSON: decoding arbitrary bytes never panics, and once a
// histogram has decoded, its encoding is a fixed point — encode, decode,
// encode gives identical bytes. The seed corpus is in testdata/fuzz.
func FuzzHistogramJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		if err := json.Unmarshal(data, &h); err != nil {
			return
		}
		first, err := json.Marshal(&h)
		if err != nil {
			t.Fatalf("Marshal after decoding %q: %v", data, err)
		}
		var back Histogram
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("decoding own encoding %s: %v", first, err)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("re-Marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable:\n first %s\nsecond %s", first, second)
		}
		if back.Total() != h.Total() || back.Mean() != h.Mean() || back.Max() != h.Max() {
			t.Fatalf("round trip changed summaries: %s vs %s", &back, &h)
		}
	})
}

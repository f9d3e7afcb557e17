package experiments

import (
	"strings"
	"testing"
)

// smallSearchDigest is the result digest of the search figure over the
// SynthCap-3000 corpus at DefaultOptions, recorded while the figure still
// cross-checked every query against the exhaustive scan (0 mismatches, at
// 1 and 2 workers). With the scan gone from the figure, this pin is what
// catches a change in the sharded engine's rankings or scores.
const smallSearchDigest = "7bfe897ed161d9e72e7c1117f435b7653f80c066ddf816320b397501f7560f6e"

// TestSearchBenchmarkSmall runs the search figure on a capped corpus and
// checks the contract parts of the result: the corpus honors SynthCap,
// the result digest is the pinned one, and the table carries the engine.
func TestSearchBenchmarkSmall(t *testing.T) {
	o := DefaultOptions()
	o.SynthCap = 3000
	o.Reps = 2
	o.Workers = 2
	r := SearchBenchmark(o)

	if r.Docs != 3000 {
		t.Errorf("Docs = %d, want SynthCap 3000", r.Docs)
	}
	if r.Digest != smallSearchDigest {
		t.Fatalf("result digest %s, want %s", r.Digest, smallSearchDigest)
	}
	if r.Requests != r.Queries*o.Reps {
		t.Errorf("Requests = %d, want %d", r.Requests, r.Queries*o.Reps)
	}
	if r.ShardedQPS <= 0 || r.ShardedP99Millis <= 0 || r.ShardedBuildSeconds <= 0 {
		t.Errorf("degenerate timings: %+v", r)
	}
	s := r.String()
	if !strings.Contains(s, "sharded") || !strings.Contains(s, "result digest "+smallSearchDigest[:12]) {
		t.Errorf("table missing engine row or digest note:\n%s", s)
	}
}

// TestSearchBenchmarkWorkerCountIndependence pins the determinism
// contract the CI matrix replays: corpus generation, sharded build, and
// ranked results must not depend on the worker count, so the result
// digest is identical at 1 and N workers.
func TestSearchBenchmarkWorkerCountIndependence(t *testing.T) {
	o := DefaultOptions()
	o.SynthCap = 2000
	o.Reps = 1
	var digest string
	for _, w := range []int{1, 3} {
		o.Workers = w
		r := SearchBenchmark(o)
		if digest == "" {
			digest = r.Digest
		} else if r.Digest != digest {
			t.Fatalf("workers=%d digest %s != workers=1 digest %s", w, r.Digest, digest)
		}
	}
}

package qaindex

import "testing"

// TestShardedSearchAllocs gates the serving hot path: a warm SearchInto
// with a recycled destination buffer performs zero allocations.
func TestShardedSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	docs := synthCorpus(500, 13)
	sh := BuildSharded(docs, 4, 2)
	const q = "alpha beta camera price"
	var dst []Hit
	for i := 0; i < 3; i++ { // warm the pool, heap, and stem cache
		dst = sh.SearchInto(dst, q, 10, -1)
	}
	if avg := testing.AllocsPerRun(50, func() {
		dst = sh.SearchInto(dst, q, 10, -1)
	}); avg != 0 {
		t.Errorf("sharded warm SearchInto allocates %.1f/op, want 0", avg)
	}
}

package qaindex

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"thor/internal/core"
	"thor/internal/deepweb"
	"thor/internal/objects"
	"thor/internal/parallel"
	"thor/internal/probe"
)

// synthCorpus builds n documents over a small shared vocabulary so query
// terms hit many documents, with unique URLs so the legacy sort order is
// fully deterministic and comparable hit-for-hit.
func synthCorpus(n int, seed int64) []Doc {
	vocab := []string{
		"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
		"theta", "iota", "kappa", "lambda", "mu", "price", "seller",
		"camera", "digital", "black", "silver", "widget", "gadget",
		"blast", "query", "music", "guitar", "piano", "engineer",
		"golang", "deep", "web", "object",
	}
	rng := rand.New(rand.NewSource(seed))
	docs := make([]Doc, n)
	for i := range docs {
		words := make([]byte, 0, 128)
		for w, wn := 0, 1+rng.Intn(12); w < wn; w++ {
			if w > 0 {
				words = append(words, ' ')
			}
			words = append(words, vocab[rng.Intn(len(vocab))]...)
		}
		docs[i] = Doc{
			SiteID:     rng.Intn(5),
			SiteName:   fmt.Sprintf("site-%d", i%5),
			ProbeQuery: vocab[rng.Intn(len(vocab))],
			PageURL:    fmt.Sprintf("http://s%d/doc/%04d", i%5, i),
			Text:       string(words),
		}
	}
	return docs
}

// legacyFromDocs builds the oracle index over docs in stream order.
func legacyFromDocs(docs []Doc) *legacyIndex {
	ix := &legacyIndex{}
	for _, d := range docs {
		ix.AddText(d.SiteID, d.SiteName, d.ProbeQuery, d.PageURL, d.Text)
	}
	return ix
}

var contractQueries = []string{
	"alpha",
	"alpha beta",
	"price seller camera",
	"alpha alpha beta",           // duplicated term: contributes twice
	"digital zzzznotindexedterm", // absent term mixed in
	"zzzznotindexedterm",         // only absent terms
	"",                           // empty query
	"alpha beta gamma delta epsilon zeta eta theta",
	"CAMERA Digital", // case folding + stemming
}

// requireSameHits asserts two result lists agree hit-for-hit with
// bit-identical scores.
func requireSameHits(t *testing.T, ctx string, want, got []Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if want[i].Doc.PageURL != got[i].Doc.PageURL {
			t.Fatalf("%s: hit %d is %q, want %q", ctx, i, got[i].Doc.PageURL, want[i].Doc.PageURL)
		}
		if math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			t.Fatalf("%s: hit %d score %v (%x), want %v (%x)", ctx, i,
				got[i].Score, math.Float64bits(got[i].Score),
				want[i].Score, math.Float64bits(want[i].Score))
		}
	}
}

// TestShardedContractBitIdentical pins the early-terminating sharded
// kernel to the exhaustive legacy scan: every corpus, shard count,
// query, k, and site filter must produce the same ranking with
// bit-identical BM25 scores.
func TestShardedContractBitIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 5, 50, 300} {
		docs := synthCorpus(n, int64(1000+n))
		ix := legacyFromDocs(docs)
		for _, shards := range []int{1, 2, 3, 7} {
			sh := BuildSharded(docs, shards, 2)
			if sh.Len() != n {
				t.Fatalf("n=%d shards=%d: Len=%d", n, shards, sh.Len())
			}
			ks := []int{0, 1, 2, 3, 5, 10, n, n + 3, 2*n + 1}
			for _, q := range contractQueries {
				for _, k := range ks {
					ctx := fmt.Sprintf("n=%d shards=%d q=%q k=%d", n, shards, q, k)
					requireSameHits(t, ctx, ix.Search(q, k), sh.Search(q, k))
					for site := 0; site < 3; site++ {
						requireSameHits(t, ctx+fmt.Sprintf(" site=%d", site),
							ix.SearchSite(q, k, site), sh.SearchSite(q, k, site))
					}
				}
			}
		}
	}
}

// TestShardedSitesSupportingContract pins sharded site discovery to the
// legacy implementation: same sites, same order, bit-identical best
// scores, same match counts.
func TestShardedSitesSupportingContract(t *testing.T) {
	for _, n := range []int{0, 1, 50, 300} {
		docs := synthCorpus(n, int64(2000+n))
		ix := legacyFromDocs(docs)
		sh := BuildSharded(docs, 3, 2)
		for _, q := range contractQueries {
			want, got := ix.SitesSupporting(q), sh.SitesSupporting(q)
			if len(want) != len(got) {
				t.Fatalf("n=%d q=%q: %d sites, want %d", n, q, len(got), len(want))
			}
			for i := range want {
				if want[i].SiteID != got[i].SiteID || want[i].Matches != got[i].Matches ||
					math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
					t.Fatalf("n=%d q=%q site %d: got %+v, want %+v", n, q, i, got[i], want[i])
				}
			}
		}
	}
}

// oldSitesSupporting is the pre-refactor implementation verbatim (rank
// the whole corpus, then aggregate per site) — the regression oracle for
// the one-pass rewrite.
func oldSitesSupporting(ix *legacyIndex, query string) []SiteHit {
	best := make(map[int]*SiteHit)
	for _, h := range ix.Search(query, ix.Len()) {
		sh, ok := best[h.Doc.SiteID]
		if !ok {
			best[h.Doc.SiteID] = &SiteHit{
				SiteID: h.Doc.SiteID, SiteName: h.Doc.SiteName,
				Score: h.Score, Matches: 1,
			}
			continue
		}
		sh.Matches++
		if h.Score > sh.Score {
			sh.Score = h.Score
		}
	}
	out := make([]SiteHit, 0, len(best))
	for _, sh := range best {
		out = append(out, *sh)
	}
	sort.Slice(out, func(i, j int) bool {
		//thorlint:allow no-float-eq deterministic sort tie-break on equal scores
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].SiteID < out[j].SiteID
	})
	return out
}

// TestSitesSupportingRegression pins the one-pass SitesSupporting to the
// old rank-everything implementation on randomized corpora.
func TestSitesSupportingRegression(t *testing.T) {
	for _, n := range []int{0, 1, 5, 50, 300} {
		docs := synthCorpus(n, int64(3000+n))
		ix := legacyFromDocs(docs)
		for _, q := range contractQueries {
			want, got := oldSitesSupporting(ix, q), ix.SitesSupporting(q)
			if len(want) != len(got) {
				t.Fatalf("n=%d q=%q: %d sites, want %d", n, q, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d q=%q site %d: got %+v, want %+v", n, q, i, got[i], want[i])
				}
			}
		}
	}
}

// shardedDigest fingerprints every segment's full contents (documents,
// vocabulary, postings) via the canonical segment encoding.
func shardedDigest(t *testing.T, s *Sharded) [32]byte {
	t.Helper()
	h := sha256.New()
	for i := 0; i < s.Shards(); i++ {
		if err := s.Segment(i).WriteSegment(h); err != nil {
			t.Fatalf("digest segment %d: %v", i, err)
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestShardedWorkerCountIndependence: shard contents are bit-identical
// at any build worker count, both for direct builds and for multi-stream
// ingest (CI determinism matrix).
func TestShardedWorkerCountIndependence(t *testing.T) {
	docs := synthCorpus(400, 77)
	var want [32]byte
	for i, workers := range []int{1, 2, 3, 8} {
		got := shardedDigest(t, BuildSharded(docs, 5, workers))
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("BuildSharded digest diverges at workers=%d", workers)
		}
	}
	extract := func(i int) []Doc {
		return synthCorpus(60, parallel.DeriveSeed(99, int64(i)))
	}
	var wantIngest [32]byte
	for i, workers := range []int{1, 2, 4, 7} {
		got := shardedDigest(t, IngestSharded(6, 4, workers, extract))
		if i == 0 {
			wantIngest = got
		} else if got != wantIngest {
			t.Fatalf("IngestSharded digest diverges at workers=%d", workers)
		}
	}
}

// TestShardedConcurrentIngestStress feeds Sharded from parallel
// extraction streams (full probe → extract → partition pipelines) and
// then hammers the built index from concurrent searchers — the -race
// coverage for the ingest and query paths.
func TestShardedConcurrentIngestStress(t *testing.T) {
	const streams = 4
	extract := func(i int) []Doc {
		site := deepweb.NewSite(deepweb.SiteConfig{ID: i, Seed: 42})
		prober := &probe.Prober{Plan: probe.NewPlan(30, 3, 4), Labeler: deepweb.Labeler()}
		col := prober.ProbeSite(site)
		res := core.NewExtractor(core.DefaultConfig()).Extract(col.Pages)
		return DocsFromPagelets(site.ID(), site.Name(), res.Pagelets, objects.NewPartitioner(objects.Config{}))
	}
	sh := IngestSharded(streams, 3, streams, extract)
	if sh.Len() == 0 {
		t.Fatal("extraction streams produced no documents")
	}
	queries := []string{"price", "music", "the", "widget camera", "deep web object"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []Hit
			for r := 0; r < 20; r++ {
				q := queries[(g+r)%len(queries)]
				dst = sh.SearchInto(dst, q, 10, -1)
				sh.SitesSupporting(q)
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedTieOrderDeterministic: duplicate-content documents (same
// score, distinct URLs) rank in a stable order across repeated queries
// and shard counts.
func TestShardedTieOrderDeterministic(t *testing.T) {
	docs := make([]Doc, 12)
	for i := range docs {
		docs[i] = Doc{
			SiteID: i % 3, SiteName: "s", ProbeQuery: "q",
			PageURL: fmt.Sprintf("http://x/%02d", i),
			Text:    "same words here",
		}
	}
	ix := legacyFromDocs(docs)
	for _, shards := range []int{1, 4} {
		sh := BuildSharded(docs, shards, 2)
		requireSameHits(t, fmt.Sprintf("shards=%d", shards),
			ix.Search("same words", 12), sh.Search("same words", 12))
	}
}

// TestShardedSearchIntoReuse: SearchInto appends into the caller's
// buffer and never aliases pooled scratch — mutating returned hits must
// not affect a subsequent query's results.
func TestShardedSearchIntoReuse(t *testing.T) {
	docs := synthCorpus(100, 7)
	sh := BuildSharded(docs, 3, 2)
	dst := sh.SearchInto(nil, "alpha beta", 5, -1)
	if len(dst) == 0 {
		t.Fatal("no hits")
	}
	first := make([]Hit, len(dst))
	copy(first, dst)
	dst = sh.SearchInto(dst, "alpha beta", 5, -1)
	requireSameHits(t, "reused buffer", first, dst)
}

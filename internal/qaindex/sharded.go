package qaindex

import (
	"fmt"

	"thor/internal/parallel"
)

// Sharded is the segmented QA-Object index: documents are partitioned
// across N immutable Segments by a deterministic content hash, and top-k
// queries run the max-score/block-max kernel (topk.go) over every
// segment with shared global statistics, so scores — and therefore
// rankings — are bit-identical to an exhaustive BM25 scan over the same
// document stream (the oracle the contract tests keep).
//
// A Sharded index is immutable once built; concurrent searches are safe
// and allocation-free warm (the per-query scratch is pooled).
type Sharded struct {
	segs     []*Segment
	n        int // total documents
	totalLen int // total token length
}

// shardOf assigns a document to a shard by FNV-1a over its content
// fields. The hash depends only on the document itself — not on stream
// position, worker count, or shard build order — so any two ingests of
// the same documents agree on every placement.
func shardOf(d *Doc, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= prime32
		}
		// Field separator so ("ab","c") and ("a","bc") hash apart.
		h ^= 0xff
		h *= prime32
	}
	mix(d.SiteName)
	mix(d.ProbeQuery)
	mix(d.PageURL)
	mix(d.Text)
	id := uint32(d.SiteID)
	for range 4 {
		h ^= id & 0xff
		h *= prime32
		id >>= 8
	}
	return int(h % uint32(shards))
}

// BuildSharded partitions docs across shards segments by content hash
// and builds the segments concurrently with up to workers goroutines.
// Within a shard, documents keep their stream order; the partition is a
// pure function of document content, so shard contents are bit-identical
// at any worker count.
func BuildSharded(docs []Doc, shards, workers int) *Sharded {
	if shards <= 0 {
		shards = 1
	}
	parts := make([][]Doc, shards)
	s := &Sharded{n: len(docs)}
	for i := range docs {
		p := shardOf(&docs[i], shards)
		parts[p] = append(parts[p], docs[i])
	}
	s.segs = parallel.Map(shards, workers, func(i int) *Segment {
		return BuildSegment(parts[i])
	})
	for _, seg := range s.segs {
		s.totalLen += seg.totalLen
	}
	return s
}

// IngestSharded builds a Sharded index from n parallel extraction
// streams: extract(i) produces stream i's documents (it runs
// concurrently with other streams, up to workers at once — each call
// must be independent, e.g. seeded via parallel.DeriveSeed). Streams are
// concatenated in index order before partitioning, so the resulting
// index is bit-identical for every worker count.
func IngestSharded(n, shards, workers int, extract func(i int) []Doc) *Sharded {
	chunks := parallel.Map(n, workers, extract)
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	docs := make([]Doc, 0, total)
	for _, c := range chunks {
		docs = append(docs, c...)
	}
	return BuildSharded(docs, shards, workers)
}

// Len returns the total number of indexed documents.
func (s *Sharded) Len() int { return s.n }

// Shards returns the number of segments.
func (s *Sharded) Shards() int { return len(s.segs) }

// Segment returns shard i — read-only access for persistence and
// inspection.
func (s *Sharded) Segment(i int) *Segment { return s.segs[i] }

// Terms returns the summed per-segment vocabulary size. Terms appearing
// in several shards count once per shard — this is a storage statistic,
// not the global distinct-term count.
func (s *Sharded) Terms() int {
	t := 0
	for _, seg := range s.segs {
		t += len(seg.terms)
	}
	return t
}

// Search returns the top-k documents for a free-text query under BM25,
// bit-identical to an exhaustive scan over the same documents.
func (s *Sharded) Search(query string, k int) []Hit {
	return s.SearchInto(nil, query, k, -1)
}

// SearchSite restricts Search to one source.
func (s *Sharded) SearchSite(query string, k, siteID int) []Hit {
	return s.SearchInto(nil, query, k, siteID)
}

// SearchInto is the allocation-aware search entry point: results are
// appended to dst[:0] and returned, so a caller recycling its hit buffer
// across queries (the serving path) performs zero steady-state
// allocations. siteFilter < 0 searches every site.
func (s *Sharded) SearchInto(dst []Hit, query string, k, siteFilter int) []Hit {
	if s.n == 0 || k <= 0 {
		return nil
	}
	sc := topkPool.Get().(*searchScratch)
	defer topkPool.Put(sc)
	return s.searchTopK(sc, dst, query, k, siteFilter)
}

// SitesSupporting returns, for a topic query, the distinct sources whose
// indexed objects match it, ordered by their best-scoring object —
// bit-identical to aggregating an exhaustive scan per site.
func (s *Sharded) SitesSupporting(query string) []SiteHit {
	if s.n == 0 {
		return []SiteHit{}
	}
	sc := topkPool.Get().(*searchScratch)
	defer topkPool.Put(sc)
	best := make(map[int]*siteAgg)
	if sc.prepare(s, query) {
		for _, seg := range s.segs {
			s.accumulateSites(sc, seg, best)
		}
	}
	return collectSiteHits(best)
}

// String summarizes the index.
func (s *Sharded) String() string {
	return fmt.Sprintf("qaindex{%d objects, %d segments}", s.n, len(s.segs))
}

package qaindex

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"thor/internal/stem"
	"thor/internal/tagtree"
)

// This file keeps the exhaustive single-index engine that served search
// before Sharded, verbatim apart from its type name, as the oracle the
// contract tests compare Sharded against: term-at-a-time BM25 over every
// posting of every query term, a full sort, and the single-file snapshot
// writer whose files Open still reads.

// legacyIndex is an inverted index over QA-Object documents with BM25 ranking.
// The zero value is ready to use; it is not safe for concurrent mutation,
// but concurrent searches over a quiescent index are safe — per-query
// state lives in a pooled scratch.
//
// The postings vocabulary is interned: each term gets a dense int32 ID at
// first sight (in deterministic first-token order) and posting lists live
// in an ID-indexed table, so the per-term storage and the query lookup
// carry one map probe per term instead of string-keyed list storage. The
// on-disk format is unaffected — persistence snapshots documents and
// rebuilds the postings on load.
type legacyIndex struct {
	docs     []*Document
	termIDs  map[string]int32 // term → dense ID, assigned in first-occurrence order
	plists   [][]posting      // posting lists indexed by term ID
	totalLen int
}

type posting struct {
	doc int
	tf  int
}

// AddText indexes a document from raw text (exposed for non-tree sources).
func (ix *legacyIndex) AddText(siteID int, siteName, probeQuery, pageURL, text string) *Document {
	doc := &Document{
		SiteID: siteID, SiteName: siteName,
		ProbeQuery: probeQuery, PageURL: pageURL, Text: text,
	}
	// Track each distinct term's first occurrence so term IDs are assigned
	// in token order, not map-iteration order: two identically-fed indexes
	// get identical internals. The counts map is transient — retaining one
	// per document would dominate the index's memory at millions of
	// objects.
	counts := make(map[string]int)
	var order []string
	for _, tok := range tagtree.Tokenize(text) {
		term := stem.Stem(tok)
		if counts[term] == 0 {
			order = append(order, term)
		}
		counts[term]++
		doc.length++
	}
	id := len(ix.docs)
	ix.docs = append(ix.docs, doc)
	if ix.termIDs == nil {
		ix.termIDs = make(map[string]int32)
	}
	for _, term := range order {
		tid, ok := ix.termIDs[term]
		if !ok {
			tid = int32(len(ix.plists))
			ix.termIDs[term] = tid
			ix.plists = append(ix.plists, nil)
		}
		ix.plists[tid] = append(ix.plists[tid], posting{doc: id, tf: counts[term]})
	}
	ix.totalLen += doc.length
	return doc
}

// Len returns the number of indexed documents.
func (ix *legacyIndex) Len() int { return len(ix.docs) }

// Terms returns the vocabulary size.
func (ix *legacyIndex) Terms() int { return len(ix.termIDs) }

// Search returns the top-k documents for a free-text query under BM25.
// Query terms are stemmed like document terms.
func (ix *legacyIndex) Search(query string, k int) []Hit {
	return ix.search(query, k, -1)
}

// SearchSite restricts Search to one source — the per-site view of the
// paper's retrieval engine.
func (ix *legacyIndex) SearchSite(query string, k, siteID int) []Hit {
	return ix.search(query, k, siteID)
}

// legacyScratch is the pooled per-query state of the exhaustive scan: the
// document-score accumulator, the pre-sort hit buffer, and a stem cache so
// a warm (repeated) query never re-runs the Porter stemmer. It recycles
// through legacyPool; the hits returned to callers are always copied out,
// never aliased to the scratch.
type legacyScratch struct {
	scores map[int]float64
	hits   []Hit
	stems  stemCache
}

var legacyPool = sync.Pool{New: func() any {
	return &legacyScratch{scores: make(map[int]float64, 256)}
}}

// compareHits orders hits best-first for sorting.
func compareHits(a, b Hit) int {
	if hitWorse(a, b) {
		return 1
	}
	if hitWorse(b, a) {
		return -1
	}
	return 0
}

// accumulate runs the exhaustive BM25 term-at-a-time scan for query into
// sc.scores: every posting of every query term, restricted to siteFilter
// when non-negative. Per document, term contributions accumulate in query
// token order — the float addition order the early-terminating kernel
// reproduces exactly.
func (ix *legacyIndex) accumulate(sc *legacyScratch, query string, siteFilter int) {
	n := len(ix.docs)
	avgLen := float64(ix.totalLen) / float64(n)
	if avgLen == 0 { //thorlint:allow no-float-eq exact-zero guard against dividing by zero
		avgLen = 1
	}
	tagtree.EachToken(query, func(tok string) {
		term := sc.stems.stem(tok)
		tid, ok := ix.termIDs[term]
		if !ok {
			return
		}
		plist := ix.plists[tid]
		if len(plist) == 0 {
			return
		}
		idf := math.Log(1 + (float64(n)-float64(len(plist))+0.5)/(float64(len(plist))+0.5))
		for _, p := range plist {
			doc := ix.docs[p.doc]
			if siteFilter >= 0 && doc.SiteID != siteFilter {
				continue
			}
			tf := float64(p.tf)
			norm := tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*float64(doc.length)/avgLen))
			sc.scores[p.doc] += idf * norm
		}
	})
}

func (ix *legacyIndex) search(query string, k, siteFilter int) []Hit {
	if len(ix.docs) == 0 || k <= 0 {
		return nil
	}
	sc := legacyPool.Get().(*legacyScratch)
	defer legacyPool.Put(sc)
	clear(sc.scores)
	sc.hits = sc.hits[:0]
	ix.accumulate(sc, query, siteFilter)
	for id, s := range sc.scores {
		sc.hits = append(sc.hits, Hit{Doc: ix.docs[id], Score: s})
	}
	slices.SortFunc(sc.hits, compareHits)
	if len(sc.hits) > k {
		sc.hits = sc.hits[:k]
	}
	out := make([]Hit, len(sc.hits))
	copy(out, sc.hits)
	return out
}

// SitesSupporting returns, for a topic query, the distinct sources whose
// indexed objects match it, ordered by their best-scoring object — the
// "searching by sites" feature of the envisioned engine.
//
// It aggregates per-site best score and match counts in one pass over the
// score accumulator, without materializing and sorting every matching
// document the way ranking the whole corpus would.
func (ix *legacyIndex) SitesSupporting(query string) []SiteHit {
	if len(ix.docs) == 0 {
		return []SiteHit{}
	}
	sc := legacyPool.Get().(*legacyScratch)
	defer legacyPool.Put(sc)
	clear(sc.scores)
	ix.accumulate(sc, query, -1)
	best := make(map[int]*siteAgg)
	for id, s := range sc.scores {
		foldSiteHit(best, ix.docs[id], s)
	}
	return collectSiteHits(best)
}

// Write serializes the index to w.
func (ix *legacyIndex) Write(w io.Writer) error {
	snap := indexSnapshot{Version: indexVersion}
	for _, d := range ix.docs {
		snap.Docs = append(snap.Docs, docSnapshot{
			SiteID: d.SiteID, SiteName: d.SiteName,
			ProbeQuery: d.ProbeQuery, PageURL: d.PageURL, Text: d.Text,
		})
	}
	gz := gzip.NewWriter(w)
	encErr := gob.NewEncoder(gz).Encode(&snap)
	closeErr := gz.Close() // Close flushes; its error means truncated output
	if encErr != nil {
		return fmt.Errorf("qaindex: encode: %w", encErr)
	}
	if closeErr != nil {
		return fmt.Errorf("qaindex: compress: %w", closeErr)
	}
	return nil
}

// WriteFile writes the index to path.
func (ix *legacyIndex) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("qaindex: %w", err)
	}
	werr := ix.Write(f)
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = fmt.Errorf("qaindex: %w", cerr)
	}
	return werr
}

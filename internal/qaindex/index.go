// Package qaindex is the retrieval layer of the deep-web search engine the
// paper's introduction envisions (Section 1): extracted QA-Objects are
// indexed as fine-grained documents so users can search *inside* deep-web
// answers ("list seller and price information of all digital cameras")
// and can discover which sources answer a topic at all ("list all sites
// supporting BLAST queries"). THOR feeds it: every QA-Object extracted in
// stage three becomes one indexed document.
//
// Sharded (sharded.go / segment.go / topk.go) is the one search engine:
// it partitions documents across immutable segments and serves top-k
// queries with max-score/block-max early termination under BM25. Its
// contract tests compare it, bit for bit, against the exhaustive
// single-index scan it replaced, which survives only as a test oracle.
package qaindex

import (
	"slices"
	"strings"

	"thor/internal/stem"
)

// Document is one indexed QA-Object.
type Document struct {
	// SiteID and SiteName identify the deep-web source.
	SiteID   int
	SiteName string
	// ProbeQuery is the probe keyword whose answer page carried the
	// object.
	ProbeQuery string
	// PageURL is the dynamic page the object was extracted from.
	PageURL string
	// Text is the object's full text.
	Text string

	length int
}

// Hit is one search result.
type Hit struct {
	Doc   *Document
	Score float64
}

// Searcher is the query surface the HTTP serving layer accepts: free-text
// top-k search, its per-site restriction, and the search-by-sites
// discovery feature. *Sharded implements it; a wrapper (say, one that
// traces each search) can stand in for it.
type Searcher interface {
	Search(query string, k int) []Hit
	SearchSite(query string, k, siteID int) []Hit
	SitesSupporting(query string) []SiteHit
	Len() int
}

// BM25 constants (standard Robertson/Spärck Jones defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// stemCache memoizes Stem per query token. It is bounded: past
// maxStemCache distinct tokens it resets rather than growing without
// limit under adversarial query streams.
type stemCache map[string]string

const maxStemCache = 4096

func (c *stemCache) stem(tok string) string {
	if s, ok := (*c)[tok]; ok {
		return s
	}
	s := stem.Stem(tok)
	if *c == nil {
		*c = make(stemCache, 64)
	} else if len(*c) >= maxStemCache {
		clear(*c)
	}
	// Clone the key: tok aliases the caller's query string, and a cache
	// entry must not pin request memory alive.
	(*c)[strings.Clone(tok)] = s
	return s
}

// hitWorse is the ranking order shared by every search path: higher score
// first, then lexicographic page URL as the deterministic tie-break.
func hitWorse(a, b Hit) bool {
	//thorlint:allow no-float-eq deterministic sort tie-break on equal scores
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc.PageURL > b.Doc.PageURL
}

// siteAgg is the per-site aggregate behind SitesSupporting: the site's
// best hit (under the standard ranking order, so the reported site name
// and score come from its top document) and its match count.
type siteAgg struct {
	best    Hit
	matches int
}

// foldSiteHit folds one scored document into the per-site aggregates.
// Fold order does not matter: the best hit is the maximum under the
// total hit order, so any accumulation sequence converges to the same
// aggregate.
func foldSiteHit(best map[int]*siteAgg, doc *Document, score float64) {
	a, ok := best[doc.SiteID]
	if !ok {
		best[doc.SiteID] = &siteAgg{best: Hit{Doc: doc, Score: score}, matches: 1}
		return
	}
	a.matches++
	if h := (Hit{Doc: doc, Score: score}); hitWorse(a.best, h) {
		a.best = h
	}
}

// collectSiteHits renders the per-site aggregates as the sorted
// search-by-sites result: best score first, site ID as the tie-break.
func collectSiteHits(best map[int]*siteAgg) []SiteHit {
	out := make([]SiteHit, 0, len(best))
	for id, a := range best {
		out = append(out, SiteHit{
			SiteID: id, SiteName: a.best.Doc.SiteName,
			Score: a.best.Score, Matches: a.matches,
		})
	}
	slices.SortFunc(out, func(a, b SiteHit) int {
		//thorlint:allow no-float-eq deterministic sort tie-break on equal scores
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		if a.SiteID != b.SiteID {
			if a.SiteID < b.SiteID {
				return -1
			}
			return 1
		}
		return 0
	})
	return out
}

// SiteHit is one source in a search-by-sites result.
type SiteHit struct {
	SiteID   int
	SiteName string
	Score    float64 // best object score
	Matches  int     // matching objects at the source
}

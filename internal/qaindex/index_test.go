package qaindex

import (
	"fmt"
	"strings"
	"testing"

	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/htmlx"
	"thor/internal/objects"
	"thor/internal/probe"
)

// seedDocs is a five-document corpus over three sites.
func seedDocs() []Doc {
	return []Doc{
		{SiteID: 1, SiteName: "books", ProbeQuery: "camera", PageURL: "http://a/1", Text: "digital camera bag leather black"},
		{SiteID: 1, SiteName: "books", ProbeQuery: "camera", PageURL: "http://a/2", Text: "digital camera sony silver compact"},
		{SiteID: 2, SiteName: "music", ProbeQuery: "guitar", PageURL: "http://b/1", Text: "electric guitar fender sunburst"},
		{SiteID: 2, SiteName: "music", ProbeQuery: "piano", PageURL: "http://b/2", Text: "grand piano steinway black"},
		{SiteID: 3, SiteName: "jobs", ProbeQuery: "engineer", PageURL: "http://c/1", Text: "software engineer position golang"},
	}
}

// seedIndex indexes seedDocs over two shards, so the behaviour tests
// also cross segment boundaries.
func seedIndex() *Sharded { return BuildSharded(seedDocs(), 2, 1) }

func TestSearchRanksRelevantFirst(t *testing.T) {
	ix := seedIndex()
	hits := ix.Search("digital camera", 10)
	if len(hits) < 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	for _, h := range hits[:2] {
		if !strings.Contains(h.Doc.Text, "camera") {
			t.Errorf("top hit lacks query term: %q", h.Doc.Text)
		}
	}
	if hits[0].Score < hits[len(hits)-1].Score {
		t.Error("hits not sorted by score")
	}
}

func TestSearchStemsQuery(t *testing.T) {
	ix := seedIndex()
	// "cameras" must match documents containing "camera".
	hits := ix.Search("cameras", 10)
	if len(hits) == 0 {
		t.Fatal("stemmed query found nothing")
	}
}

func TestSearchTopK(t *testing.T) {
	ix := seedIndex()
	if got := len(ix.Search("black", 1)); got != 1 {
		t.Errorf("k=1 returned %d hits", got)
	}
	if got := ix.Search("black", 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := ix.Search("nosuchterm", 5); len(got) != 0 {
		t.Errorf("absent term returned %d hits", len(got))
	}
}

func TestSearchSiteFilter(t *testing.T) {
	ix := seedIndex()
	hits := ix.SearchSite("black", 10, 2)
	if len(hits) != 1 || hits[0].Doc.SiteID != 2 {
		t.Errorf("site filter broken: %v", hits)
	}
}

func TestSitesSupporting(t *testing.T) {
	ix := seedIndex()
	sites := ix.SitesSupporting("black")
	if len(sites) != 2 {
		t.Fatalf("sites = %d, want 2 (books and music carry 'black')", len(sites))
	}
	ids := map[int]bool{}
	for _, s := range sites {
		ids[s.SiteID] = true
		if s.Matches < 1 {
			t.Errorf("site %d matches = %d", s.SiteID, s.Matches)
		}
	}
	if !ids[1] || !ids[2] {
		t.Errorf("wrong sites: %v", sites)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := BuildSharded(nil, 3, 1)
	if got := ix.Search("anything", 5); got != nil {
		t.Errorf("empty index returned hits")
	}
	if got := ix.SitesSupporting("anything"); got == nil || len(got) != 0 {
		t.Errorf("empty index SitesSupporting = %v, want empty non-nil", got)
	}
	if ix.Len() != 0 || ix.Terms() != 0 {
		t.Errorf("empty index counts wrong")
	}
	if !strings.Contains(ix.String(), "0 objects") {
		t.Errorf("String = %q", ix.String())
	}
}

// TestAddFromSubtree: a QA-Object subtree indexes as its trimmed text
// and is searchable.
func TestAddFromSubtree(t *testing.T) {
	tree := htmlx.Parse(`<li>The <b>Big</b> Widget — $9.99</li>`)
	pl := &core.Pagelet{
		Page: &corpus.Page{Query: "widget", URL: "http://s/1"},
		Node: tree.FindTag("li"),
	}
	docs := DocsFromPagelets(7, "shop", []*core.Pagelet{pl}, nil)
	if len(docs) != 1 || !strings.Contains(docs[0].Text, "Big Widget") {
		t.Fatalf("docs = %+v", docs)
	}
	if docs[0].Text != strings.TrimSpace(docs[0].Text) {
		t.Errorf("doc text not trimmed: %q", docs[0].Text)
	}
	if d := docs[0]; d.SiteID != 7 || d.SiteName != "shop" || d.ProbeQuery != "widget" || d.PageURL != "http://s/1" {
		t.Errorf("doc provenance = %+v", d)
	}
	if len(BuildSharded(docs, 1, 1).Search("widget", 1)) != 1 {
		t.Error("subtree document not searchable")
	}
}

// TestIngestEndToEnd: THOR extraction feeding the index, then fine-grained
// search across sites — the deep-web search engine loop.
func TestIngestEndToEnd(t *testing.T) {
	pt := objects.NewPartitioner(objects.Config{})
	prober := &probe.Prober{Plan: probe.NewPlan(60, 6, 4), Labeler: deepweb.Labeler()}
	var docs []Doc
	for id := 0; id < 3; id++ {
		site := deepweb.NewSite(deepweb.SiteConfig{ID: id, Seed: 42})
		col := prober.ProbeSite(site)
		res := core.NewExtractor(core.DefaultConfig()).Extract(col.Pages)
		added := DocsFromPagelets(site.ID(), site.Name(), res.Pagelets, pt)
		if len(added) == 0 {
			t.Fatalf("site %d contributed no objects", id)
		}
		docs = append(docs, added...)
	}
	ix := BuildSharded(docs, 3, 2)
	if ix.Len() != len(docs) {
		t.Errorf("index len %d != ingested %d", ix.Len(), len(docs))
	}
	// Fine-grained search: one of the probed words must retrieve objects
	// whose text contains it.
	hits := ix.Search("music", 5)
	for _, h := range hits {
		if !strings.Contains(strings.ToLower(h.Doc.Text), "music") {
			t.Errorf("hit does not contain query term: %.60q", h.Doc.Text)
		}
	}
	// Search-by-sites over a common word spans multiple sources.
	sites := ix.SitesSupporting("price")
	_ = sites // presence depends on vocabulary; just must not panic
}

func TestIngestNilPartitioner(t *testing.T) {
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 0, Seed: 42})
	prober := &probe.Prober{Plan: probe.NewPlan(30, 3, 4), Labeler: deepweb.Labeler()}
	col := prober.ProbeSite(site)
	res := core.NewExtractor(core.DefaultConfig()).Extract(col.Pages)
	if docs := DocsFromPagelets(0, "x", res.Pagelets, nil); len(docs) == 0 {
		t.Error("nil partitioner should default, not drop objects")
	}
}

func TestDeterministicTieOrder(t *testing.T) {
	docs := make([]Doc, 5)
	for i := range docs {
		docs[i] = Doc{SiteID: 1, SiteName: "s", ProbeQuery: "q", PageURL: fmt.Sprintf("http://x/%d", i), Text: "same words here"}
	}
	ix := BuildSharded(docs, 2, 1)
	a := ix.Search("same words", 5)
	b := ix.Search("same words", 5)
	if len(a) != 5 {
		t.Fatalf("hits = %d, want 5", len(a))
	}
	for i := range a {
		if a[i].Doc.PageURL != b[i].Doc.PageURL {
			t.Fatal("tie order not deterministic")
		}
		// Equal scores break ties by ascending URL.
		if want := fmt.Sprintf("http://x/%d", i); a[i].Doc.PageURL != want {
			t.Errorf("tie %d = %s, want %s", i, a[i].Doc.PageURL, want)
		}
	}
}

package main

import (
	"fmt"
	"math/rand"
	"strings"

	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/parallel"
	"thor/internal/probe"
	"thor/internal/qaindex"
)

// Every input of a run is a pure function of the run's seed. Each
// generator draws from its own stream, derived from the seed and a fixed
// unit number, so adding a generator never shifts another's inputs.
const (
	unitTrainPlan = iota + 1
	unitRequestPlan
	unitSearchDocs
	unitSearchQueries
)

func derive(seed int64, unit int) int64 { return parallel.DeriveSeed(seed, int64(unit)) }

// Probe plans: the CLI's default plan of 100 dictionary and 10 nonsense
// words trains the models; a second, disjoint plan of the same shape
// makes the pages they are asked to extract from.
const (
	planDictWords = 100
	planNonsense  = 10
)

// cliSeed is the CLI's default -seed. The simulated sites, and the plan
// and per-site seeds of the models the extract workload serves, are the
// ones `thor -sites N` and `thor -site i -save-model` use by default.
const cliSeed = 42

// cliPlan is the CLI's default probe plan.
func cliPlan() probe.Plan { return probe.NewPlan(planDictWords, planNonsense, cliSeed+1) }

// Each site draws its own plans. With one plan for every site, the words
// a seed happens to draw would make all sites cheap or costly together,
// and a run's figures would move with the seed instead of averaging over
// its sites.

// trainingPlan is the plan the traced onboarding pass trains site on.
func trainingPlan(seed int64, site int) probe.Plan {
	return probe.NewPlan(planDictWords, planNonsense, parallel.DeriveSeed(derive(seed, unitTrainPlan), int64(site)))
}

// requestPlan draws, for site, a plan of the same shape as a training
// plan that shares no keyword with train, so a model never extracts from
// a page it was trained on.
func requestPlan(seed int64, site int, train probe.Plan) probe.Plan {
	seen := map[string]bool{}
	for _, kw := range train.Keywords() {
		seen[kw] = true
	}
	rng := rand.New(rand.NewSource(parallel.DeriveSeed(derive(seed, unitRequestPlan), int64(site))))
	words := probe.Dictionary()
	var p probe.Plan
	for _, i := range rng.Perm(len(words)) {
		if len(p.DictionaryWords) == planDictWords {
			break
		}
		if !seen[words[i]] {
			p.DictionaryWords = append(p.DictionaryWords, words[i])
		}
	}
	for len(p.NonsenseWords) < planNonsense {
		w := probe.NonsenseWords(1, rng)[0]
		if !seen[w] {
			seen[w] = true
			p.NonsenseWords = append(p.NonsenseWords, w)
		}
	}
	return p
}

// farmSites builds the first n of the CLI's simulated deep-web sites.
// They are the same in every run; the run's seed draws the words they
// are probed with. Site layouts differ several-fold in how much work
// they take and how well THOR extracts from them, and a population
// redrawn per seed would move every figure by more than the changes the
// benchmark is there to see.
func farmSites(n int) *deepweb.Farm { return deepweb.NewFarm(n, cliSeed) }

// siteName is the fleet key of site i: its model file is
// <siteName>.thor.model.gz and it serves at POST /extract/<siteName>.
func siteName(i int) string { return fmt.Sprintf("site%d", i) }

// page is one answer page sent to POST /extract, with the indexed paths
// of its ground-truth QA-Pagelets.
type page struct {
	Site  int
	Body  []byte
	Truth []string
}

// sitePages queries one site with each keyword of plan, in-process, and
// returns the answer pages — no-match and error pages included.
func sitePages(s *deepweb.Site, plan probe.Plan) []page {
	var out []page
	for _, kw := range plan.Keywords() {
		html, _ := s.Query(kw)
		p := &corpus.Page{HTML: html}
		var truth []string
		for _, n := range p.TruthPagelets() {
			truth = append(truth, n.Path())
		}
		out = append(out, page{Site: s.ID(), Body: []byte(html), Truth: truth})
	}
	return out
}

// requestPool returns the pages of the extract workload: every site's
// answers to its own request plan, disjoint from the CLI's training
// plan, interleaved round-robin across sites.
func requestPool(sites []*deepweb.Site, seed int64) []page {
	per := make([][]page, len(sites))
	for i, s := range sites {
		per[i] = sitePages(s, requestPlan(seed, i, cliPlan()))
	}
	var out []page
	for j := 0; j < planDictWords+planNonsense; j++ {
		for i := range sites {
			out = append(out, per[i][j])
		}
	}
	return out
}

// Search corpus shape: word choice is Zipf-distributed over the probe
// dictionary, so head terms have long posting lists and tail terms short
// ones, the spread the top-k kernel's pruning depends on.
const (
	zipfS       = 1.2
	docMinWords = 4
	docMaxWords = 15
	searchSites = 40
)

// searchDocs generates n synthetic QA-object documents of 4–15 words
// each, spread across searchSites sites. Every document has a distinct
// URL, so a hit list is identified by its URLs and score bits.
func searchDocs(n int, seed int64) []qaindex.Doc {
	words := probe.Dictionary()
	rng := rand.New(rand.NewSource(derive(seed, unitSearchDocs)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(words)-1))
	docs := make([]qaindex.Doc, n)
	var b strings.Builder
	for i := range docs {
		b.Reset()
		for w, wn := 0, docMinWords+rng.Intn(docMaxWords-docMinWords+1); w < wn; w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[zipf.Uint64()])
		}
		site := rng.Intn(searchSites)
		docs[i] = qaindex.Doc{
			SiteID:     site,
			SiteName:   siteName(site),
			ProbeQuery: words[zipf.Uint64()],
			PageURL:    fmt.Sprintf("http://%s.example/obj/%d", siteName(site), i),
			Text:       b.String(),
		}
	}
	return docs
}

// searchQuery is one GET /search request: the free-text query and the
// site filter (-1 for none).
type searchQuery struct {
	Q    string
	Site int
}

// URL renders the request path and query string.
func (q searchQuery) URL(k int) string {
	u := fmt.Sprintf("/search?q=%s&k=%d", strings.ReplaceAll(q.Q, " ", "+"), k)
	if q.Site >= 0 {
		u += fmt.Sprintf("&site=%d", q.Site)
	}
	return u
}

// Query stream shape: 1–3 Zipf terms; every tailEvery-th query adds a
// term from the rare half of the vocabulary; one query in siteEvery is
// restricted to one site.
const (
	tailEvery = 20
	siteEvery = 5
)

// searchQueries generates the distinct-query pool of the search
// workload.
func searchQueries(n int, seed int64) []searchQuery {
	words := probe.Dictionary()
	rng := rand.New(rand.NewSource(derive(seed, unitSearchQueries)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(words)-1))
	out := make([]searchQuery, n)
	for i := range out {
		terms := make([]string, 0, 4)
		for t, tn := 0, 1+rng.Intn(3); t < tn; t++ {
			terms = append(terms, words[zipf.Uint64()])
		}
		if i%tailEvery == tailEvery-1 {
			terms = append(terms, words[len(words)/2+rng.Intn(len(words)/2)])
		}
		site := -1
		if i%siteEvery == siteEvery-1 {
			site = rng.Intn(searchSites)
		}
		out[i] = searchQuery{Q: strings.Join(terms, " "), Site: site}
	}
	return out
}

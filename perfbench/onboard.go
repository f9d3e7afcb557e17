package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"thor/internal/cluster"
	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/parallel"
	"thor/internal/probe"
	"thor/internal/strdist"
	"thor/internal/vector"
)

// heldOut is how many request-plan pages per site the reload check
// applies both the in-memory and the reloaded model to.
const heldOut = 20

// setupReps is how many times extract and search repeat their set-up;
// setup_s is the median.
const setupReps = 3

// timeSetup runs build reps times and returns the median wall time.
// Every repetition but the last releases what it built at once.
func timeSetup(reps int, build func() (release func(), err error)) (float64, error) {
	var secs []float64
	for r := 0; r < reps; r++ {
		runtime.GC() // each repetition starts from the same heap
		t0 := time.Now()
		release, err := build()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return 0, err
		}
		if r < reps-1 && release != nil {
			release()
		}
	}
	return median(secs), nil
}

// onboardEnv is the set-up of an onboarding pass: the simulated sites
// behind a loopback listener, each reached through a probe.HTTPSite.
type onboardEnv struct {
	farm   *deepweb.Farm
	srv    *server
	client *http.Client
	sites  []*probe.HTTPSite
}

// traceOnboarding onboards the extract workload's sites once untraced
// and once traced, each through the site's own seeded plan: probe over
// HTTP, BuildModel (its public stages in the traced pass, checked
// against BuildModel's pagelets), SaveFile, LoadModelFile. It writes the
// traced pass's spans to file and returns the onboarding layer metrics.
func traceOnboarding(cfg config, sites int, file string) ([]metric, error) {
	env, err := newOnboardEnv(sites)
	if err != nil {
		return nil, err
	}
	defer env.close()
	base, err := onboardPass(cfg, env, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(1 << 16)
	traced, err := onboardPass(cfg, env, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.writeTSV(file); err != nil {
		return nil, err
	}
	return onboardLayers(tr.layers(), traced, base), nil
}

func newOnboardEnv(n int) (*onboardEnv, error) {
	farm := farmSites(n)
	srv, err := startServer(farm.Handler())
	if err != nil {
		return nil, err
	}
	env := &onboardEnv{farm: farm, srv: srv, client: newClient(1)}
	for i := range farm.Sites {
		env.sites = append(env.sites, &probe.HTTPSite{
			SiteID:    i,
			SiteName:  siteName(i),
			SearchURL: fmt.Sprintf("%s/site/%d/search", srv.base, i),
			Client:    env.client,
		})
	}
	return env, nil
}

func (e *onboardEnv) close() {
	closeClient(e.client)
	if err := e.srv.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stopping farm server:", err)
	}
}

// onboardResult is what one pass over the sites measured.
type onboardResult struct {
	meter                      *meter
	pages, ok                  int
	correct, identified, total int
	siteMS                     []float64
	modelBytes                 int64
	// phase-two counters of a traced pass.
	candidates, candPages, sets, keptSets, clusterRuns int
}

// onboardPass onboards every site once: probe over HTTP, BuildModel,
// SaveFile, LoadModelFile. Two timed segments per site bracket that
// work; the correctness checks run between and after them, untimed.
// With a tracer, BuildModel is replaced in the timed segment by its
// public stages (stagedBuild), and BuildModel itself runs untimed to
// check that the stages found the same pagelets.
func onboardPass(cfg config, env *onboardEnv, tr *tracer) (*onboardResult, error) {
	res := &onboardResult{meter: newMeter()}
	defer res.meter.close()
	ctx := context.Background()
	for i, hs := range env.sites {
		prober := &probe.Prober{Plan: trainingPlan(cfg.seed, i)}
		held := requestPlan(cfg.seed, i, prober.Plan)
		held.DictionaryWords = held.DictionaryWords[:heldOut]
		held.NonsenseWords = nil
		ccfg := core.DefaultConfig()
		ccfg.Seed = cfg.seed + int64(i)
		ccfg.Workers = cfg.workers
		ext := core.NewExtractor(ccfg)
		req := int64(i)

		res.meter.begin()
		t0 := time.Now()
		root := tr.begin("onboard.site", -1, req)
		var col *corpus.Collection
		tr.do("probe.site", root, req, func() { col = prober.ProbeSite(hs) })
		var model *core.Model
		var staged []pageletRef
		var err error
		if tr == nil {
			model, err = ext.BuildModel(col.Pages)
		} else {
			staged, err = stagedBuild(tr, root, req, ext, col.Pages, res)
		}
		tr.finish(root)
		segA := time.Since(t0)
		res.meter.end()
		if err != nil {
			return nil, fmt.Errorf("onboard %s: %w", siteName(i), err)
		}
		if tr != nil {
			if model, err = ext.BuildModel(col.Pages); err != nil {
				return nil, fmt.Errorf("onboard %s: %w", siteName(i), err)
			}
			if want := trainingRefs(model, col.Pages); !slices.Equal(staged, want) {
				return nil, fmt.Errorf("onboard %s: staged build found %d pagelets %v, BuildModel %d %v",
					siteName(i), len(staged), staged, len(want), want)
			}
		}
		c, id, tot := core.Score(model.Training().Pagelets, col.Pages)
		res.correct += c
		res.identified += id
		res.total += tot
		res.pages += len(col.Pages)
		samples := sitePages(env.farm.Sites[i], held)
		want, err := verdicts(ctx, model, samples)
		if err != nil {
			return nil, fmt.Errorf("onboard %s: %w", siteName(i), err)
		}

		path := filepath.Join(cfg.dir, siteName(i)+".thor.model.gz")
		res.meter.begin()
		t1 := time.Now()
		root = tr.begin("onboard.site", -1, req)
		tr.do("persist.save", root, req, func() { err = model.SaveFile(path) })
		var loaded *core.Model
		if err == nil {
			tr.do("persist.load", root, req, func() { loaded, err = core.LoadModelFile(path) })
		}
		tr.finish(root)
		segB := time.Since(t1)
		res.meter.end()
		if err != nil {
			return nil, fmt.Errorf("onboard %s: %w", siteName(i), err)
		}

		got, err := verdicts(ctx, loaded, samples)
		if err != nil {
			return nil, fmt.Errorf("onboard %s: reloaded: %w", siteName(i), err)
		}
		if !slices.Equal(got, want) {
			return nil, fmt.Errorf("onboard %s: reloaded model's verdicts %q differ from the in-memory model's %q", siteName(i), got, want)
		}
		if fi, err := os.Stat(path); err == nil {
			res.modelBytes += fi.Size()
		}
		if err := os.Remove(path); err != nil {
			return nil, err
		}
		res.ok++
		res.siteMS = append(res.siteMS, float64(segA+segB)/1e6)
	}
	return res, nil
}

// verdicts applies m to every page and renders each verdict as its path,
// or "-" for no pagelet.
func verdicts(ctx context.Context, m *core.Model, pages []page) ([]string, error) {
	out := make([]string, len(pages))
	for i, p := range pages {
		path, found, err := m.ApplyHTMLBytes(ctx, p.Body)
		if err != nil {
			return nil, err
		}
		out[i] = "-"
		if found {
			out[i] = path
		}
	}
	return out, nil
}

// pageletRef names one extracted pagelet by its page's position in the
// training sample and its indexed path.
type pageletRef struct {
	Page int
	Path string
}

func trainingRefs(m *core.Model, pages []*corpus.Page) []pageletRef {
	idx := make(map[*corpus.Page]int, len(pages))
	for i, p := range pages {
		idx[p] = i
	}
	var out []pageletRef
	for _, pl := range m.Training().Pagelets {
		out = append(out, pageletRef{idx[pl.Page], pl.Path})
	}
	return out
}

// stagedBuild runs BuildModel's stages through their public entry points,
// in BuildModel's order and with its seeds, recording a span around each.
// It works on fresh copies of the pages so the first Tree() call of each
// page is its parse, and clusters the vectors of the vector.tfidf span,
// as BuildModel does, rather than weighting the signatures again. It
// returns the pagelets phase two selected, in BuildModel's order, and
// compiles a wrapper per passed cluster.
func stagedBuild(tr *tracer, root int32, req int64, ext *core.Extractor, src []*corpus.Page, res *onboardResult) ([]pageletRef, error) {
	cfg := ext.Config()
	pages := make([]*corpus.Page, len(src))
	for i, p := range src {
		pages[i] = &corpus.Page{SiteID: p.SiteID, URL: p.URL, Query: p.Query, HTML: p.HTML, Class: p.Class}
	}
	sigs := make([]map[string]int, len(pages))
	for i, p := range pages {
		tr.do("htmlx.parse", root, req, func() { p.Tree() })
		tr.do("corpus.signature", root, req, func() { sigs[i] = p.TagSignature() })
	}
	var vecs vector.Interned
	tr.do("vector.tfidf", root, req, func() { vecs = core.SignatureVectorsInterned(sigs, cfg.Approach) })
	name := cfg.Clusterer
	if name == "" {
		name = cfg.Approach.DefaultClusterer()
	}
	clusterer, err := cluster.MustLookup(name)
	if err != nil {
		return nil, err
	}
	var cl cluster.Result
	tr.do("cluster.kmeans", root, req, func() {
		cl, err = clusterer.Cluster(cluster.Input{N: len(pages), Interned: func() vector.Interned { return vecs }},
			cluster.Config{K: cfg.K, Restarts: cfg.Restarts, Seed: cfg.Seed, Workers: cfg.Workers})
	})
	if err != nil {
		return nil, err
	}
	ranked := rankClusters(pages, cl.Clustering)

	m := min(cfg.TopClusters, len(ranked))
	results := make([]*core.Phase2Result, m)
	counts := make([][4]int, m)
	parallel.ForEach(m, cfg.Workers, func(ci int) {
		results[ci], counts[ci] = stagedPhase2(tr, root, req, ranked[ci], cfg, parallel.DeriveSeed(cfg.Seed, int64(ci)))
	})

	idx := make(map[*corpus.Page]int, len(pages))
	for i, p := range pages {
		idx[p] = i
	}
	var refs []pageletRef
	for ci, r := range results {
		res.candidates += counts[ci][0]
		res.candPages += counts[ci][1]
		res.sets += counts[ci][2]
		res.keptSets += counts[ci][3]
		res.clusterRuns++
		for _, pl := range r.Pagelets {
			refs = append(refs, pageletRef{idx[pl.Page], pl.Path})
		}
		tr.do("wrapper.compile", root, req, func() {
			//thorlint:allow no-unchecked-error a cluster without a selected region compiles no wrapper, as in BuildModel
			_, _ = ext.BuildWrapper(r)
		})
	}
	return refs, nil
}

// rankClusters orders the non-empty clusters of cl the way phase one
// ranks them: by the equally weighted sum of each cluster's average
// distinct terms, fan-out and page size, each normalized by its maximum
// over the clusters, highest first and stable on ties. core exports no
// ranking over a given clustering, and the staged build must not cluster
// twice; a ranking that drifts from core's fails the comparison with
// BuildModel's pagelets. It returns each cluster's member pages.
func rankClusters(pages []*corpus.Page, cl cluster.Clustering) [][]*corpus.Page {
	type ranked struct {
		pages []*corpus.Page
		crit  [3]float64
		score float64
	}
	var rs []*ranked
	var maxes [3]float64
	for _, members := range cl.Clusters {
		if len(members) == 0 {
			continue
		}
		r := &ranked{}
		for _, i := range members {
			p := pages[i]
			t := p.Tree()
			r.pages = append(r.pages, p)
			r.crit[0] += float64(t.DistinctTerms())
			r.crit[1] += float64(t.MaxFanout())
			r.crit[2] += float64(p.Size())
		}
		for c := range r.crit {
			r.crit[c] /= float64(len(members))
			maxes[c] = max(maxes[c], r.crit[c])
		}
		rs = append(rs, r)
	}
	for _, r := range rs {
		for c := range r.crit {
			if maxes[c] > 0 {
				r.score += r.crit[c] / maxes[c]
			}
		}
		r.score /= 3
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].score > rs[j].score })
	out := make([][]*corpus.Page, len(rs))
	for i, r := range rs {
		out[i] = r.pages
	}
	return out
}

// stagedPhase2 is core.Phase2 through its public stages. It returns the
// result (pagelets carry no QA-Object recommendations, which the
// comparison does not need) and the counts [candidates, pages, sets,
// sets kept].
func stagedPhase2(tr *tracer, root int32, req int64, pages []*corpus.Page, cfg core.Config, seed int64) (*core.Phase2Result, [4]int) {
	var counts [4]int
	perPage := make([][]*core.Candidate, len(pages))
	tr.do("phase2.candidates", root, req, func() {
		for i, p := range pages {
			perPage[i] = core.SinglePageCandidates(p.Tree(), i)
			counts[0] += len(perPage[i])
		}
	})
	counts[1] = len(pages)

	var sets []*core.SubtreeSet
	tr.do("phase2.subtree_sets", root, req, func() {
		rng := rand.New(rand.NewSource(seed))
		sets = core.FindCommonSubtreeSets(perPage, cfg, rng, strdist.NewSimplifier(cfg.PathSimplifyQ))
		counts[2] = len(sets)
		// Phase2's minimum-support filter.
		minMembers := max(int(math.Ceil(cfg.MinSetFraction*float64(len(pages)))), 1)
		kept := sets[:0]
		for _, s := range sets {
			if len(s.Members) >= minMembers {
				kept = append(kept, s)
			}
		}
		sets = kept
		counts[3] = len(sets)
	})
	tr.do("phase2.rank", root, req, func() { core.RankSubtreeSets(sets, cfg) })
	res := &core.Phase2Result{Sets: sets}
	tr.do("phase2.select", root, req, func() { res.SelectedSets = core.SelectPagelets(sets, cfg) })
	if len(res.SelectedSets) == 0 {
		return res, counts
	}
	res.Selected = res.SelectedSets[0]
	for _, sel := range res.SelectedSets {
		for _, m := range sel.Members {
			res.Pagelets = append(res.Pagelets, &core.Pagelet{Page: pages[m.PageIdx], Node: m.Node, Path: m.Node.Path()})
		}
	}
	return res, counts
}

package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"thor/internal/cluster"
	"thor/internal/corpus"
	"thor/internal/parallel"
	"thor/internal/strdist"
	"thor/internal/tagtree"
	"thor/internal/vector"
)

// This file pins the interned-dictionary refactor to the pre-interning
// behavior: every reference function below reproduces, verbatim, the
// string-keyed pipeline as it stood before term IDs existed — building
// cluster input with only the Sparse vector view (so the registry
// adapters take their string branch), ranking subtree sets with string
// TFIDF cosines, and assigning fresh pages with string-space cosine
// against projected centroids. The production pipeline must match all
// of it bit for bit, at one worker and at many.

// stringPathPhase1 is Phase1 as it ran before interning: the clusterer
// input offers no Interned view, so clustering runs entirely on the
// string kernels.
func stringPathPhase1(pages []*corpus.Page, cfg Config) Phase1Result {
	a := cfg.Approach
	sigs := cluster.Memo(func() []map[string]int {
		if a.IsVector() && a.ContentBased() {
			return ContentSignatures(pages)
		}
		return TagSignatures(pages)
	})
	in := cluster.Input{
		N: len(pages),
		Vecs: cluster.Memo(func() []vector.Sparse {
			if a.IsVector() {
				return SignatureVectors(sigs(), a)
			}
			return vector.TFIDF(sigs())
		}),
		Sizes: cluster.Memo(func() []int {
			sizes := make([]int, len(pages))
			for i, p := range pages {
				sizes[i] = p.Size()
			}
			return sizes
		}),
		URLs: cluster.Memo(func() []string {
			urls := make([]string, len(pages))
			for i, p := range pages {
				urls[i] = p.URL
			}
			return urls
		}),
		Trees: cluster.Memo(func() []*tagtree.Node {
			trees := make([]*tagtree.Node, len(pages))
			for i, p := range pages {
				trees[i] = p.Tree()
			}
			return trees
		}),
	}
	res, err := clusterPages(in, cfg)
	if err != nil {
		panic("interned contract test: " + err.Error())
	}
	return rankClusters(pages, res.Clustering, res.Similarity)
}

// stringIntraSim is intraSetSimilarity before interning: string-keyed
// TFIDF (or raw-frequency) member vectors and the string Cosine kernel.
func stringIntraSim(s *SubtreeSet, cfg Config) float64 {
	n := len(s.Members)
	if n < 2 {
		return 1
	}
	docs := make([]map[string]int, n)
	empty := true
	for i, m := range s.Members {
		docs[i] = m.termCounts()
		if len(docs[i]) > 0 {
			empty = false
		}
	}
	if empty {
		return 1
	}
	var vecs []vector.Sparse
	if cfg.RawContentVectors {
		vecs = vector.RawFrequency(docs)
	} else {
		vecs = vector.TFIDF(docs)
	}
	var sum float64
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += vector.Cosine(vecs[i], vecs[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

// stringPathPhase2 is Phase2 with the ranking step running on
// stringIntraSim — the full phase-two tail (selection, pagelet and
// QA-Object collection) included, so the comparison covers the final
// pagelet paths, not just the similarity values.
func stringPathPhase2(pages []*corpus.Page, cfg Config, seed int64) *Phase2Result {
	perPage := parallel.Map(len(pages), cfg.Workers, func(i int) []*Candidate {
		return SinglePageCandidates(pages[i].Tree(), i)
	})
	rng := rand.New(rand.NewSource(seed))
	simp := strdist.NewSimplifier(cfg.PathSimplifyQ)
	sets := FindCommonSubtreeSets(perPage, cfg, rng, simp)
	minMembers := int(math.Ceil(cfg.MinSetFraction * float64(len(pages))))
	if minMembers < 1 {
		minMembers = 1
	}
	kept := sets[:0]
	for _, s := range sets {
		if len(s.Members) >= minMembers {
			kept = append(kept, s)
		}
	}
	sets = kept
	parallel.ForEach(len(sets), cfg.Workers, func(i int) {
		s := sets[i]
		s.IntraSim = stringIntraSim(s, cfg)
		s.Dynamic = s.IntraSim <= cfg.SimThreshold
	})
	sort.SliceStable(sets, func(i, j int) bool {
		return sets[i].IntraSim < sets[j].IntraSim
	})
	res := &Phase2Result{Sets: sets}
	res.SelectedSets = SelectPagelets(sets, cfg)
	if len(res.SelectedSets) == 0 {
		return res
	}
	res.Selected = res.SelectedSets[0]
	isSelected := make(map[*SubtreeSet]bool, len(res.SelectedSets))
	for _, s := range res.SelectedSets {
		isSelected[s] = true
	}
	dynByPage := make(map[int][]*tagtree.Node)
	for _, s := range sets {
		if !s.Dynamic || isSelected[s] {
			continue
		}
		for _, m := range s.Members {
			dynByPage[m.PageIdx] = append(dynByPage[m.PageIdx], m.Node)
		}
	}
	for _, sel := range res.SelectedSets {
		for _, m := range sel.Members {
			pl := &Pagelet{
				Page: pages[m.PageIdx],
				Node: m.Node,
				Path: m.Node.Path(),
			}
			for _, d := range dynByPage[m.PageIdx] {
				if m.Node.IsAncestorOf(d) {
					pl.Objects = append(pl.Objects, d)
				}
			}
			res.Pagelets = append(res.Pagelets, pl)
		}
	}
	return res
}

// stringPathApply is Model.Apply before interning: the fresh page's
// string-keyed vector against string-keyed centroids with the string
// Cosine kernel (the interned centroids projected back, which the
// vector-layer tests pin as an exact projection).
func stringPathApply(m *Model, page *corpus.Page) []*Pagelet {
	v := oracleVectorize(m, page)
	best, bestSim := 0, -1.0
	for c, ctr := range m.Centroids {
		if sim := vector.Cosine(v, m.Dict.ToSparse(ctr)); sim > bestSim {
			best, bestSim = c, sim
		}
	}
	w := m.Wrappers[best]
	if w == nil {
		return nil
	}
	node, _ := oracleExtract(w, page.Tree())
	if node == nil {
		return nil
	}
	return []*Pagelet{{Page: page, Node: node, Path: node.Path()}}
}

// TestInternedPipelineMatchesStringPathWorkerCountIndependence is the
// repo-wide interning contract: phase-one clusters and ranking,
// phase-two subtree sets and pagelet paths, and Model.Apply on pages
// never seen in training are all bit-identical to the pre-interning
// string-keyed pipeline, at workers=1 and workers=N — and identical
// across worker counts.
func TestInternedPipelineMatchesStringPathWorkerCountIndependence(t *testing.T) {
	col := probeSite(t, 3, 7)
	fresh := probeSite(t, 3, 99) // same site, different probe plan: unseen pages for Apply

	var refP1 Phase1Result
	var refApplied [][]*Pagelet
	for wi, w := range []int{1, runtime.GOMAXPROCS(0)} {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.Workers = w

		// Phase 1: production interned clustering vs the string-only input.
		got := Phase1(col.Pages, cfg)
		want := stringPathPhase1(col.Pages, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: interned Phase1 differs from string path", w)
		}
		if wi == 0 {
			refP1 = got
		} else if !reflect.DeepEqual(got, refP1) {
			t.Fatalf("workers=%d: Phase1 differs from workers=1", w)
		}

		// Phase 2 on every ranked cluster, with the pipeline's own seed
		// derivation: interned intra-set ranking vs the string reference,
		// down to the extracted pagelet paths and QA-Objects.
		for ci, pc := range got.Ranked {
			seed := parallel.DeriveSeed(cfg.Seed, int64(ci))
			p2 := Phase2(pc.Pages, cfg, seed)
			ref := stringPathPhase2(pc.Pages, cfg, seed)
			if !reflect.DeepEqual(p2, ref) {
				t.Fatalf("workers=%d cluster %d: interned Phase2 differs from string path", w, ci)
			}
		}

		// Model.Apply on unseen pages: interned assignment vs the string
		// cosine loop, including the extracted pagelets.
		m, err := NewExtractor(cfg).BuildModel(col.Pages)
		if err != nil {
			t.Fatal(err)
		}
		applied := make([][]*Pagelet, len(fresh.Pages))
		for i, page := range fresh.Pages {
			gotP, err := m.Apply(page)
			if err != nil {
				t.Fatalf("workers=%d: Apply(%s): %v", w, page.URL, err)
			}
			if wantP := stringPathApply(m, page); !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("workers=%d page %s: interned Apply differs from string path", w, page.URL)
			}
			applied[i] = gotP
		}
		if wi == 0 {
			refApplied = applied
		} else if !reflect.DeepEqual(applied, refApplied) {
			t.Fatalf("workers=%d: Apply output differs from workers=1", w)
		}
	}
}

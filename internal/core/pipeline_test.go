package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"thor/internal/corpus"
	"thor/internal/vector"
)

// applyVerdict is one page's serve answer, comparable across paths.
type applyVerdict struct {
	Path  string
	Found bool
}

// modelForApproach builds a model over one probed site with the given
// approach, and returns it with fresh pages of the same site.
func modelForApproach(t *testing.T, a Approach) (*Model, []*corpus.Page) {
	t.Helper()
	col := probeSite(t, 4, 11)
	fresh := probeSite(t, 4, 120)
	cfg := DefaultConfig()
	cfg.Approach = a
	cfg.Seed = 7
	cfg.Workers = 1
	m, err := NewExtractor(cfg).BuildModel(col.Pages)
	if err != nil {
		t.Fatalf("%v: BuildModel: %v", a, err)
	}
	return m, fresh.Pages
}

// buildModelForApproach builds a model with the given approach and
// returns the oracle's verdict on each fresh page with the page's HTML.
func buildModelForApproach(t *testing.T, a Approach) (*Model, []applyVerdict, []string) {
	t.Helper()
	m, fresh := modelForApproach(t, a)
	verdicts := make([]applyVerdict, len(fresh))
	htmls := make([]string, len(fresh))
	for i, p := range fresh {
		pls, err := oracleApply(m, p)
		if err != nil {
			t.Fatalf("%v: oracleApply: %v", a, err)
		}
		if len(pls) > 0 {
			verdicts[i] = applyVerdict{Path: pls[0].Path, Found: true}
		}
		htmls[i] = p.HTML
	}
	return m, verdicts, htmls
}

// TestApplyHTMLMatchesApplyAllApproaches pins both apply entry points to
// the page-based oracle engine on every approach that can build a model
// — the TFIDF/raw × tags/content grid plus a non-vector baseline — over
// fresh pages the model never saw (match and no-match pages alike):
// ApplyHTML's verdict (assigned wrapper and extracted pagelet path) bit
// for bit, and the thin Apply Pagelet for Pagelet, down to the very same
// *tagtree.Node of page.Tree(), so ground-truth scoring by node identity
// is unchanged.
func TestApplyHTMLMatchesApplyAllApproaches(t *testing.T) {
	ctx := context.Background()
	for _, a := range []Approach{TFIDFTags, RawTags, TFIDFContent, RawContent, SizeBased} {
		m, fresh := modelForApproach(t, a)
		anyFound := false
		for i, page := range fresh {
			want, err := oracleApply(m, page)
			if err != nil {
				t.Fatalf("%v: oracleApply: %v", a, err)
			}
			var wantV applyVerdict
			if len(want) > 0 {
				wantV = applyVerdict{Path: want[0].Path, Found: true}
			}
			path, found, err := m.ApplyHTML(ctx, page.HTML)
			if err != nil {
				t.Fatalf("%v: ApplyHTML: %v", a, err)
			}
			if got := (applyVerdict{Path: path, Found: found}); got != wantV {
				t.Fatalf("%v page %d: ApplyHTML = %+v, oracle = %+v", a, i, got, wantV)
			}
			got, err := m.Apply(page)
			if err != nil {
				t.Fatalf("%v: Apply: %v", a, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v page %d: Apply = %+v, oracle = %+v", a, i, got, want)
			}
			if len(got) > 0 && (got[0].Node != want[0].Node || got[0].Page != page) {
				t.Fatalf("%v page %d: Apply returned a node outside the page's own tree", a, i)
			}
			anyFound = anyFound || found
		}
		if !anyFound {
			t.Fatalf("%v: no page extracted anything; the contract checked nothing", a)
		}
	}
}

// TestApplyHTMLBytesMatchesApplyHTML pins the zero-copy byte entry point
// to the string form on every approach, and proves the answer shares
// nothing with the caller's buffer: scribbling over the request bytes
// after the call must leave the returned path intact.
func TestApplyHTMLBytesMatchesApplyHTML(t *testing.T) {
	ctx := context.Background()
	for _, a := range []Approach{TFIDFTags, RawTags, TFIDFContent, RawContent, SizeBased} {
		m, want, htmls := buildModelForApproach(t, a)
		for i, html := range htmls {
			buf := []byte(html)
			path, found, err := m.ApplyHTMLBytes(ctx, buf)
			if err != nil {
				t.Fatalf("%v: ApplyHTMLBytes: %v", a, err)
			}
			if got := (applyVerdict{Path: path, Found: found}); got != want[i] {
				t.Fatalf("%v page %d: ApplyHTMLBytes = %+v, oracle = %+v", a, i, got, want[i])
			}
			for j := range buf {
				buf[j] = 'x'
			}
			if got := (applyVerdict{Path: path, Found: found}); got != want[i] {
				t.Fatalf("%v page %d: verdict aliased the request buffer", a, i)
			}
		}
	}
	m, _, _ := buildModelForApproach(t, TFIDFTags)
	wantPath, wantFound, err := m.ApplyHTML(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	gotPath, gotFound, err := m.ApplyHTMLBytes(ctx, nil)
	if err != nil || gotPath != wantPath || gotFound != wantFound {
		t.Fatalf("nil body: (%q,%v,%v), string form (%q,%v)", gotPath, gotFound, err, wantPath, wantFound)
	}
}

// TestApplyHTMLPooledScratchWorkerCountIndependence is the pooled-scratch
// concurrency contract: many goroutines hammering ApplyHTML through the
// shared sync.Pool — scratches recycled across goroutines mid-run — must
// return exactly the serial answers, for every worker count. Run under
// -race in CI (core is in the race package list).
func TestApplyHTMLPooledScratchWorkerCountIndependence(t *testing.T) {
	m, want, htmls := buildModelForApproach(t, TFIDFTags)
	ctx := context.Background()
	const rounds = 3 // revisit every page so scratches are certainly reused
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 8} {
		got := make([]applyVerdict, len(htmls)*rounds)
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					path, found, err := m.ApplyHTML(ctx, htmls[i%len(htmls)])
					if err != nil {
						t.Errorf("workers=%d: ApplyHTML: %v", workers, err)
						return
					}
					got[i] = applyVerdict{Path: path, Found: found}
				}
			}()
		}
		for i := range got {
			idx <- i
		}
		close(idx)
		wg.Wait()
		for i, g := range got {
			if g != want[i%len(want)] {
				t.Fatalf("workers=%d call %d: %+v, want %+v", workers, i, g, want[i%len(want)])
			}
		}
	}
}

// TestAssignNearestMatchesCosineLoop is the CosineUnit satellite's
// regression test on real model geometry: for every fresh page vector,
// AssignNearest (Cosine with the provably-exact CosineUnit fast path)
// must equal the verbatim Cosine loop the page-based Apply inlined — same
// winning index, same similarity bits.
func TestAssignNearestMatchesCosineLoop(t *testing.T) {
	col := probeSite(t, 3, 7)
	fresh := probeSite(t, 3, 99)
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Workers = 1
	m, err := NewExtractor(cfg).BuildModel(col.Pages)
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range fresh.Pages {
		v := m.Dict.Intern(oracleVectorize(m, page))
		wantBest, wantSim := 0, -1.0
		for c, ctr := range m.Centroids {
			if sim := v.Cosine(ctr); sim > wantSim {
				wantBest, wantSim = c, sim
			}
		}
		gotBest, gotSim := vector.AssignNearest(v, m.Centroids)
		if gotBest != wantBest || gotSim != wantSim {
			t.Fatalf("page %s: AssignNearest = (%d, %x), Cosine loop = (%d, %x)",
				page.URL, gotBest, gotSim, wantBest, wantSim)
		}
	}
}

// TestInternCountsMatchesVectorizeIntern pins the fused serve-path
// vectorization against the composition it replaces, on real pages with
// unseen vocabulary: Dict.InternCounts(signature counts) must equal
// Dict.Intern(oracleVectorize(page)) bit for bit — IDs, weights, and cached
// norm — for both weighting branches.
func TestInternCountsMatchesVectorizeIntern(t *testing.T) {
	for _, a := range []Approach{TFIDFTags, RawTags, TFIDFContent, RawContent} {
		col := probeSite(t, 4, 11)
		fresh := probeSite(t, 4, 120)
		cfg := DefaultConfig()
		cfg.Approach = a
		cfg.Seed = 7
		cfg.Workers = 1
		m, err := NewExtractor(cfg).BuildModel(col.Pages)
		if err != nil {
			t.Fatal(err)
		}
		var scratch vector.InternScratch
		for _, page := range fresh.Pages {
			want := m.Dict.Intern(oracleVectorize(m, page))
			got := m.Dict.InternCounts(m.signatureCounts(page), m.applyWeighting(), &scratch)
			if got.Norm() != want.Norm() || !reflect.DeepEqual(got.IDs, want.IDs) ||
				!reflect.DeepEqual(got.Weights, want.Weights) {
				t.Fatalf("%v page %s: InternCounts differs from Intern(oracleVectorize)", a, page.URL)
			}
		}
	}
}

package htmlx_test

import (
	"testing"

	"thor/internal/deepweb"
	"thor/internal/htmlx"
	"thor/internal/tagtree"
)

// FuzzParse pins three invariants of the parse layer on arbitrary bytes:
// neither parser panics; the arena Parser (reused across inputs) builds
// the same tree as the heap Parse; and every tag node n of the heap tree
// is found again by tagtree.Lookup(root, n.Path()). The last is what the
// page-based Model.Apply relies on when it resolves the pooled
// pipeline's arena-parse verdict path back onto the page's heap tree.
//
// Seeds: the tag-soup pages of the reuse tests, the conformance inputs,
// and answer pages of a few simulated deep-web sites (match, no-match
// and error classes).
func FuzzParse(f *testing.F) {
	for _, src := range htmlx.TrickyPages {
		f.Add(src)
	}
	for _, src := range htmlx.ConformanceInputs() {
		f.Add(src)
	}
	for id := 0; id < 3; id++ {
		site := deepweb.NewSite(deepweb.SiteConfig{ID: id, Seed: 42})
		for _, q := range []string{"music", "garden", "zzqxv"} {
			html, _ := site.Query(q)
			f.Add(html)
		}
	}
	p := htmlx.NewParser()
	f.Fuzz(func(t *testing.T, src string) {
		root := htmlx.Parse(src)
		arena := p.Parse(src)
		err := htmlx.TreeEqual(root, arena)
		p.Release()
		if err != nil {
			t.Fatalf("arena Parser differs from Parse: %v", err)
		}
		root.Walk(func(n *tagtree.Node) bool {
			if n.Type != tagtree.TagNode {
				return true
			}
			path := n.Path()
			got, err := tagtree.Lookup(root, path)
			if err != nil {
				t.Fatalf("Lookup(%q): %v", path, err)
			}
			if got != n {
				t.Fatalf("Lookup(%q) resolved a different node", path)
			}
			return true
		})
	})
}

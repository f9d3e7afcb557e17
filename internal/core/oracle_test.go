package core

import (
	"fmt"
	"math"

	"thor/internal/corpus"
	"thor/internal/strdist"
	"thor/internal/tagtree"
	"thor/internal/vector"
)

// This file keeps the page-based serve engine that Model.Apply ran on
// before it became a thin layer over the pooled pipeline, verbatim, as
// the oracle the contract tests compare the production engine against:
// string-space vectorization over the page's cached signature, interning,
// AssignNearest, and a Candidate-based wrapper scan on the page's own
// heap tree.

// oracleApply is the pre-pipeline Model.Apply (its ApplyContext body with
// the context check dropped).
func oracleApply(m *Model, page *corpus.Page) ([]*Pagelet, error) {
	if page == nil {
		return nil, fmt.Errorf("core: Apply on nil page")
	}
	if len(m.Centroids) == 0 {
		return nil, fmt.Errorf("core: model has no clusters to assign to")
	}
	v := m.Dict.Intern(oracleVectorize(m, page))
	best, _ := vector.AssignNearest(v, m.Centroids)
	w := m.Wrappers[best]
	if w == nil {
		return nil, nil
	}
	node, _ := oracleExtract(w, page.Tree())
	if node == nil {
		return nil, nil
	}
	return []*Pagelet{{Page: page, Node: node, Path: node.Path()}}, nil
}

// oracleVectorize is the pre-pipeline Model.Vectorize: the approach's
// signature weighted with the training document frequencies.
func oracleVectorize(m *Model, page *corpus.Page) vector.Sparse {
	counts := m.signatureCounts(page)
	if m.Cfg.Approach.RawWeighted() {
		return vector.FromCounts(counts).Normalize()
	}
	weighted := make(map[string]float64, len(counts))
	for term, tf := range counts {
		df := m.DF[term]
		if df == 0 {
			continue
		}
		weighted[term] = vector.TFIDFWeight(tf, m.NDocs, df)
	}
	return vector.FromMap(weighted).Normalize()
}

// oracleExtract is the pre-pipeline Wrapper.Extract: score every
// SinglePageCandidates candidate with oracleDistance, keep the first
// strict minimum, and reject it above MaxDistance.
func oracleExtract(w *Wrapper, tree *tagtree.Node) (*tagtree.Node, float64) {
	best, bestD := (*tagtree.Node)(nil), math.Inf(1)
	for _, cand := range SinglePageCandidates(tree, 0) {
		if d := oracleDistance(w, cand); d < bestD {
			best, bestD = cand.Node, d
		}
	}
	if best == nil || bestD > w.MaxDistance {
		return nil, bestD
	}
	return best, bestD
}

// oracleDistance is the pre-pipeline Wrapper.distance: the paper's
// four-term shape distance over a Candidate's string path and metrics.
func oracleDistance(w *Wrapper, c *Candidate) float64 {
	var d float64
	if w.Weights[0] != 0 && len(w.Paths) > 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[0] * strdist.Normalized(w.topPath(), w.simp.SimplifyPath(c.Path))
	}
	if w.Weights[1] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[1] * ratioDiffF(w.Fanout, float64(c.Fanout))
	}
	if w.Weights[2] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[2] * ratioDiffF(w.Depth, float64(c.Depth))
	}
	if w.Weights[3] != 0 { //thorlint:allow no-float-eq zero weight is an exact "term disabled" sentinel
		d += w.Weights[3] * ratioDiffF(w.Nodes, float64(c.Nodes))
	}
	return d
}

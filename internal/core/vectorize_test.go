package core

import (
	"testing"

	"thor/internal/corpus"
	"thor/internal/vector"
)

// vectorizeModel builds a tiny model directly — trained vocabulary {a: p,
// table, td} — so a page with unseen tags exercises the
// out-of-vocabulary rules of both weighting branches deterministically.
func vectorizeModel(a Approach) *Model {
	cfg := DefaultConfig()
	cfg.Approach = a
	return &Model{
		Cfg:   cfg,
		NDocs: 4,
		DF:    map[string]int{"p": 4, "table": 2, "td": 1},
	}
}

// oovPage holds trained tags (p, table, td) alongside tags no training
// page had (blink, marquee).
func oovPage() *corpus.Page {
	return &corpus.Page{HTML: `<html><body>
		<p>x</p><p>y</p><table><tr><td>z</td></tr></table>
		<blink>new</blink><marquee>tags</marquee>
	</body></html>`}
}

// TestVectorizeRawKeepsOOVTerms: the raw branch must normalize over
// every term of the page — unseen vocabulary included — exactly as
// FromCounts().Normalize() does, and never consult the DF table.
func TestVectorizeRawKeepsOOVTerms(t *testing.T) {
	m := vectorizeModel(RawTags)
	page := oovPage()
	got := oracleVectorize(m, page)
	want := vector.FromCounts(page.TagSignature()).Normalize()
	if !vector.Equal(got, want) {
		t.Fatalf("raw oracleVectorize = %+v, want FromCounts.Normalize = %+v", got, want)
	}
	if got.Weight("blink") == 0 || got.Weight("marquee") == 0 {
		t.Errorf("raw branch dropped out-of-vocabulary terms: %+v", got)
	}
	// DF must not influence raw weighting: same page, emptied DF table.
	m.DF = map[string]int{}
	if !vector.Equal(oracleVectorize(m, page), want) {
		t.Error("raw branch consulted the DF table")
	}
}

// TestVectorizeTFIDFDropsDFMisses: the TFIDF branch drops terms with no
// document frequency before weighting and normalizes over the survivors,
// matching the per-term TFIDFWeight composition.
func TestVectorizeTFIDFDropsDFMisses(t *testing.T) {
	m := vectorizeModel(TFIDFTags)
	page := oovPage()
	got := oracleVectorize(m, page)
	if got.Weight("blink") != 0 || got.Weight("marquee") != 0 {
		t.Errorf("TFIDF branch kept df-less terms: %+v", got)
	}
	weighted := make(map[string]float64)
	for term, tf := range page.TagSignature() {
		if df := m.DF[term]; df > 0 {
			weighted[term] = vector.TFIDFWeight(tf, m.NDocs, df)
		}
	}
	want := vector.FromMap(weighted).Normalize()
	if !vector.Equal(got, want) {
		t.Fatalf("TFIDF oracleVectorize = %+v, want weighted composition = %+v", got, want)
	}
}

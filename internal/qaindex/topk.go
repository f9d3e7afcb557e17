package qaindex

import (
	"math"
	"slices"
	"sync"

	"thor/internal/tagtree"
)

// boundPad is the safety factor multiplied into every score upper bound
// (list-level, block-level, and partial-sum bounds). Bounds are compared
// against the top-k threshold with strict <, and actual scores are
// re-derived in the exhaustive scan's exact float-addition order, so the
// kernel may only skip a document when its *padded* bound is strictly
// below the threshold. The pad (1 part in 10⁹) dwarfs the ~1-ulp-per-term rounding
// difference between bound arithmetic and the true sum, making
// over-pruning impossible while costing a negligible amount of extra
// scoring.
const boundPad = 1 + 1e-9

// planTerm is one unique query term in the query plan: its stemmed form,
// its occurrence count in the query (a duplicated term contributes once
// per occurrence, exactly like the exhaustive scan), its corpus-wide
// document frequency, and the global IDF derived from it.
type planTerm struct {
	term string
	mult int32
	df   int
	idf  float64
}

// segTerm is one query term's cursor state inside the current segment.
type segTerm struct {
	slot   int32 // index into searchScratch.terms
	tid    int32 // segment-local term ID
	cursor int32 // posting position; only moves forward
	// scale is mult × idf × boundPad — the factor turning a norm upper
	// bound into a padded contribution bound.
	scale float64
	// w is the whole-list padded upper bound (scale × best possible
	// norm); the max-score term ordering key.
	w float64
}

// heapHit is a top-k heap entry. It carries the ranking tie-break keys
// (URL, then segment/doc position for full determinism on duplicate
// URLs) so heap decisions never need to touch the Document.
type heapHit struct {
	score float64
	url   string
	seg   int32
	doc   int32
}

// searchScratch is the pooled per-query state of the sharded kernel:
// the tokenized query plan, per-segment cursors and bound prefix sums,
// the candidate contribution buffer, and the top-k heap. Warm queries
// reuse all of it — zero steady-state allocations (gated by
// TestShardedSearchAllocs). Results handed to callers never alias the
// scratch.
type searchScratch struct {
	stems   stemCache
	termIdx map[string]int32
	tokens  []int32 // token position → term slot, -1 when the term is corpus-absent
	terms   []planTerm
	contrib []float64 // per-slot contribution of the candidate being scored
	active  []segTerm
	prefix  []float64 // prefix[i] = Σ active[0..i].w, ascending-w order
	heap    []heapHit
	avgLen  float64
}

var topkPool = sync.Pool{New: func() any {
	return &searchScratch{termIdx: make(map[string]int32, 8)}
}}

// prepare tokenizes and stems query and derives the global query plan:
// unique term slots, occurrence counts, corpus-wide document frequencies
// and IDFs, and the corpus average document length. Returns false when
// no query term occurs anywhere in the index.
func (sc *searchScratch) prepare(s *Sharded, query string) bool {
	sc.tokens = sc.tokens[:0]
	sc.terms = sc.terms[:0]
	clear(sc.termIdx)
	tagtree.EachToken(query, func(tok string) {
		term := sc.stems.stem(tok)
		slot, ok := sc.termIdx[term]
		if !ok {
			slot = int32(len(sc.terms))
			sc.termIdx[term] = slot
			sc.terms = append(sc.terms, planTerm{term: term})
		}
		sc.terms[slot].mult++
		sc.tokens = append(sc.tokens, slot)
	})
	if len(sc.tokens) == 0 {
		return false
	}
	sc.avgLen = float64(s.totalLen) / float64(s.n)
	if sc.avgLen == 0 { //thorlint:allow no-float-eq exact-zero guard against dividing by zero
		sc.avgLen = 1
	}
	alive := false
	for i := range sc.terms {
		t := &sc.terms[i]
		df := 0
		for _, seg := range s.segs {
			df += seg.df(t.term)
		}
		t.df, t.idf = df, 0
		if df == 0 {
			continue
		}
		alive = true
		// Same expression as the exhaustive scan, with the global df.
		t.idf = math.Log(1 + (float64(s.n)-float64(df)+0.5)/(float64(df)+0.5))
	}
	for i, slot := range sc.tokens {
		if sc.terms[slot].df == 0 {
			sc.tokens[i] = -1
		}
	}
	if cap(sc.contrib) < len(sc.terms) {
		sc.contrib = make([]float64, len(sc.terms))
	}
	sc.contrib = sc.contrib[:len(sc.terms)]
	return alive
}

// normBound evaluates the BM25 norm at a bounding (tf, dl) pair. The
// norm is monotone increasing in term frequency and decreasing in
// document length, so (maxTF, minLen) of any posting run bounds every
// posting in it.
func normBound(tf, dl, avgLen float64) float64 {
	return tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgLen))
}

// segPlan resets the per-segment state: one cursor per query term
// present in the segment, sorted by padded whole-list upper bound
// ascending (the max-score order), plus the bound prefix sums. Returns
// false when no query term occurs in the segment.
func (sc *searchScratch) segPlan(seg *Segment) bool {
	sc.active = sc.active[:0]
	for i := range sc.contrib {
		sc.contrib[i] = 0
	}
	for slot := range sc.terms {
		t := &sc.terms[slot]
		if t.df == 0 {
			continue
		}
		tid, ok := seg.termIDs[t.term]
		if !ok {
			continue
		}
		tp := &seg.terms[tid]
		scale := float64(t.mult) * t.idf * boundPad
		sc.active = append(sc.active, segTerm{
			slot:  int32(slot),
			tid:   tid,
			scale: scale,
			w:     scale * normBound(float64(tp.maxTF), float64(tp.minLen), sc.avgLen),
		})
	}
	if len(sc.active) == 0 {
		return false
	}
	slices.SortFunc(sc.active, compareSegTerms)
	sc.prefix = sc.prefix[:0]
	sum := 0.0
	for i := range sc.active {
		sum += sc.active[i].w
		sc.prefix = append(sc.prefix, sum)
	}
	return true
}

// compareSegTerms orders segment cursors by list upper bound ascending,
// term slot as the deterministic tie-break.
func compareSegTerms(a, b segTerm) int {
	//thorlint:allow no-float-eq deterministic sort tie-break on equal bounds
	if a.w != b.w {
		if a.w < b.w {
			return -1
		}
		return 1
	}
	if a.slot != b.slot {
		if a.slot < b.slot {
			return -1
		}
		return 1
	}
	return 0
}

// heapHitWorse reports whether a ranks strictly worse than b: lower
// score first, then greater URL, then greater (segment, doc) position.
// The score/URL legs match hitWorse, so sharded rankings agree with the
// exhaustive scan wherever its order is deterministic.
func heapHitWorse(a, b heapHit) bool {
	//thorlint:allow no-float-eq deterministic tie-break on equal scores
	if a.score != b.score {
		return a.score < b.score
	}
	if a.url != b.url {
		return a.url > b.url
	}
	if a.seg != b.seg {
		return a.seg > b.seg
	}
	return a.doc > b.doc
}

// compareHeapHits orders heap entries best-first for the final sort.
func compareHeapHits(a, b heapHit) int {
	if heapHitWorse(a, b) {
		return 1
	}
	if heapHitWorse(b, a) {
		return -1
	}
	return 0
}

// siftUp restores the heap property (worst entry at the root) after an
// append at index i.
func (sc *searchScratch) siftUp(i int) {
	h := sc.heap
	for i > 0 {
		p := (i - 1) / 2
		if !heapHitWorse(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDown restores the heap property after replacing the root.
func (sc *searchScratch) siftDown(i int) {
	h := sc.heap
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < n && heapHitWorse(h[l], h[w]) {
			w = l
		}
		if r < n && heapHitWorse(h[r], h[w]) {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// searchTopK runs the max-score/block-max kernel over every segment,
// sharing one top-k heap (so later segments inherit the threshold), and
// appends the ranked hits to dst[:0].
func (s *Sharded) searchTopK(sc *searchScratch, dst []Hit, query string, k, siteFilter int) []Hit {
	dst = dst[:0]
	sc.heap = sc.heap[:0]
	if !sc.prepare(s, query) {
		return dst
	}
	if k > s.n {
		k = s.n
	}
	for si := range s.segs {
		s.scanSegment(sc, s.segs[si], int32(si), k, siteFilter)
	}
	slices.SortFunc(sc.heap, compareHeapHits)
	for _, h := range sc.heap {
		dst = append(dst, Hit{Doc: s.segs[h.seg].docs[h.doc], Score: h.score})
	}
	return dst
}

// scanSegment is the document-at-a-time max-score loop over one segment.
//
// Invariants:
//   - θ is the k-th best score so far (−inf until the heap fills); it
//     only rises, so `split` — the count of non-essential terms, whose
//     combined padded bound stays strictly below θ — only grows.
//   - Candidates are the ascending document IDs present in at least one
//     essential list; a document matching only non-essential terms
//     cannot reach θ and is never visited.
//   - A candidate is fully scored only if its padded bound (static
//     non-essential prefix + per-block bounds of the essential terms
//     matching it) reaches θ; scoring itself abandons early once the
//     accumulated-actual + remaining-bound sum falls below θ.
//   - A fully scored candidate's final score is re-accumulated in query
//     token order — the exhaustive scan's float addition order — so every
//     emitted score is bit-identical to exhaustive BM25.
func (s *Sharded) scanSegment(sc *searchScratch, seg *Segment, si int32, k, siteFilter int) {
	if len(seg.docs) == 0 || !sc.segPlan(seg) {
		return
	}
	nAct := len(sc.active)
	theta := math.Inf(-1)
	full := len(sc.heap) == k
	if full {
		theta = sc.heap[0].score
	}
	split := 0
	for full && split < nAct && sc.prefix[split] < theta {
		split++
	}
	for {
		// Next candidate: minimum document over the essential cursors.
		d := int32(-1)
		for i := split; i < nAct; i++ {
			t := &sc.active[i]
			tp := &seg.terms[t.tid]
			if int(t.cursor) >= len(tp.docs) {
				continue
			}
			if cd := tp.docs[t.cursor]; d < 0 || cd < d {
				d = cd
			}
		}
		if d < 0 {
			return // essential lists exhausted (or all lists non-essential)
		}
		doc := seg.docs[d]
		if siteFilter >= 0 && doc.SiteID != siteFilter {
			sc.advanceEssential(seg, split, d)
			continue
		}
		if full {
			// Cheap padded bound: static non-essential prefix plus the
			// block-max bound of each essential term matching d.
			bound := 0.0
			if split > 0 {
				bound = sc.prefix[split-1]
			}
			for i := split; i < nAct; i++ {
				t := &sc.active[i]
				tp := &seg.terms[t.tid]
				if int(t.cursor) < len(tp.docs) && tp.docs[t.cursor] == d {
					b := &tp.blocks[t.cursor/blockSize]
					bound += t.scale * normBound(float64(b.maxTF), float64(b.minLen), sc.avgLen)
				}
			}
			if bound < theta {
				sc.advanceEssential(seg, split, d)
				continue
			}
		}
		// Full scoring, largest-bound terms first, abandoning once the
		// actual-so-far plus the remaining padded prefix cannot reach θ.
		acc := 0.0
		abandoned := false
		for j := nAct - 1; j >= 0; j-- {
			if full && acc*boundPad+sc.prefix[j] < theta {
				abandoned = true
				break
			}
			t := &sc.active[j]
			tp := &seg.terms[t.tid]
			t.cursor = tp.seek(t.cursor, d)
			sc.contrib[t.slot] = 0
			if int(t.cursor) < len(tp.docs) && tp.docs[t.cursor] == d {
				tf := float64(tp.tfs[t.cursor])
				norm := tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*float64(doc.length)/sc.avgLen))
				c := sc.terms[t.slot].idf * norm
				sc.contrib[t.slot] = c
				acc += float64(sc.terms[t.slot].mult) * c
			}
		}
		if !abandoned {
			// Exact score: token-order accumulation, the exhaustive scan's float
			// addition sequence. Absent terms add an exact +0.
			score := 0.0
			for _, slot := range sc.tokens {
				if slot >= 0 {
					score += sc.contrib[slot]
				}
			}
			h := heapHit{score: score, url: doc.PageURL, seg: si, doc: d}
			if !full {
				sc.heap = append(sc.heap, h)
				sc.siftUp(len(sc.heap) - 1)
				if len(sc.heap) == k {
					full = true
					theta = sc.heap[0].score
					for split < nAct && sc.prefix[split] < theta {
						split++
					}
				}
			} else if heapHitWorse(sc.heap[0], h) {
				sc.heap[0] = h
				sc.siftDown(0)
				if sc.heap[0].score > theta {
					theta = sc.heap[0].score
					for split < nAct && sc.prefix[split] < theta {
						split++
					}
				}
			}
		}
		sc.advanceEssential(seg, split, d)
	}
}

// advanceEssential steps every essential cursor sitting on document d
// past it, so d is never proposed as a candidate again.
func (sc *searchScratch) advanceEssential(seg *Segment, split int, d int32) {
	for i := split; i < len(sc.active); i++ {
		t := &sc.active[i]
		tp := &seg.terms[t.tid]
		if int(t.cursor) < len(tp.docs) && tp.docs[t.cursor] == d {
			t.cursor++
		}
	}
}

// accumulateSites is the exhaustive document-at-a-time pass behind
// Sharded.SitesSupporting: every matching document in the segment is
// scored exactly (token order) and folded into the per-site aggregate.
// No pruning — site discovery needs every site's best match, not a
// global top-k.
func (s *Sharded) accumulateSites(sc *searchScratch, seg *Segment, best map[int]*siteAgg) {
	if len(seg.docs) == 0 || !sc.segPlan(seg) {
		return
	}
	nAct := len(sc.active)
	for {
		d := int32(-1)
		for i := 0; i < nAct; i++ {
			t := &sc.active[i]
			tp := &seg.terms[t.tid]
			if int(t.cursor) >= len(tp.docs) {
				continue
			}
			if cd := tp.docs[t.cursor]; d < 0 || cd < d {
				d = cd
			}
		}
		if d < 0 {
			return
		}
		doc := seg.docs[d]
		for i := 0; i < nAct; i++ {
			t := &sc.active[i]
			tp := &seg.terms[t.tid]
			sc.contrib[t.slot] = 0
			if int(t.cursor) < len(tp.docs) && tp.docs[t.cursor] == d {
				tf := float64(tp.tfs[t.cursor])
				norm := tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*float64(doc.length)/sc.avgLen))
				sc.contrib[t.slot] = sc.terms[t.slot].idf * norm
				t.cursor++
			}
		}
		score := 0.0
		for _, slot := range sc.tokens {
			if slot >= 0 {
				score += sc.contrib[slot]
			}
		}
		foldSiteHit(best, doc, score)
	}
}

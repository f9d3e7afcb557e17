package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"thor/internal/fleet"
	"thor/internal/parallel"
	"thor/internal/qaindex"
)

const (
	// searchDocCount is the indexed corpus size, and searchShards its
	// segment count. At this size the live index is about 16 MiB, so the
	// timed phase spans several GC cycles rather than the one or two
	// whose timing decided p99 for corpora of 150k–200k documents.
	searchDocCount = 50_000
	searchShards   = 8
	// searchPoolSize is the number of distinct queries; request r sends
	// query r mod searchPoolSize.
	searchPoolSize = 6000
	searchK        = 10
	// searchConns is the closed loop's connection count, and
	// searchPerSecond its request count per nominal second: the one
	// connection completes about 1,050 a second, so a 40-second run takes
	// about 34 s and sends each query six times, 6,000 requests apart.
	//
	// The loop is closed because an open loop at a fixed rate over two
	// connections, timing each request from its due time, measured the
	// host: stalls lasting seconds queued requests behind both
	// connections, and that queue moved p99 by 30–55% between runs of the
	// same seed. The percentiles are taken over each query's median
	// latency because in a closed loop, too, whole stretches of a run
	// slowed its p99 from 3 to 9 ms while the same queries' medians
	// moved by a tenth of that. The loop holds one connection: run
	// alternately with one and with two on the same host, two
	// connections' p50, p90, throughput and CPU per query each moved by
	// 21–28% between runs, and one connection's by 4–8%.
	searchConns     = 1
	searchPerSecond = 900
	// snippetLen matches the excerpt length /search serves.
	snippetLen = 160
)

// defaultSeed is the seed the digests recorded for search, below, and
// for extract were made with.
const defaultSeed = 1

// expectedSearchDigest fingerprints the top-k hits (URLs and score bits)
// of the default seed's query pool over its corpus. A run with the
// default seed fails if its in-process results differ.
const expectedSearchDigest = "a79a26e7808ca7a8"

// hitRef identifies one hit by document URL and exact score.
type hitRef struct {
	URL   string
	Score uint64
}

// searchEnv is the set-up of the search workload: the index as
// `thor -save-index` writes it and `thor -serve -index` opens it,
// served behind the fleet's /search route.
type searchEnv struct {
	// built is the index before it was persisted, kept only until the
	// expected hits are computed from it.
	built   *qaindex.Sharded
	ix      *qaindex.Sharded
	fl      *fleet.Fleet
	srv     *server
	client  *http.Client
	queries []searchQuery
	want    [][]hitRef
	digest  string
	traced  *searchTracing

	buildS, writeS, openS float64
}

func runSearch(cfg config) (outcome, error) {
	var env *searchEnv
	var builds, writes, opens []float64
	setup, err := timeSetup(setupReps, func() (func(), error) {
		e, err := newSearchEnv(cfg)
		env = e
		if err != nil {
			return nil, err
		}
		builds, writes, opens = append(builds, e.buildS), append(writes, e.writeS), append(opens, e.openS)
		return e.close, nil
	})
	if err != nil {
		return outcome{}, err
	}
	defer env.close()
	env.want, env.digest = expectedHits(env.built, env.queries, cfg.workers)
	env.built = nil
	if cfg.seed == defaultSeed && env.digest != expectedSearchDigest {
		return outcome{}, fmt.Errorf("search: result digest %s for the default seed, recorded %s", env.digest, expectedSearchDigest)
	}
	live := liveHeapMB()

	n := cfg.seconds * searchPerSecond
	if cfg.trace {
		n /= 2 // a traced run makes two passes
	}
	base, err := env.pass(n, nil)
	if err != nil {
		return outcome{}, err
	}
	res := outcome{attempted: n, failed: n - base.ok, notes: []string{
		fmt.Sprintf("loadgen: closed loop, %d connection(s), %d requests over %d distinct queries, k=%d (%.1f s)", searchConns, n, len(env.queries), searchK, base.meter.wall.Seconds()),
		fmt.Sprintf("search: %d docs in %d segments, result digest %s (served hits equal the in-process index)", env.ix.Len(), env.ix.Shards(), env.digest),
	}}
	if !cfg.trace {
		res.metrics = append(res.metrics,
			metric{Name: "setup_s", Value: setup, Unit: "s", Samples: setupReps, Note: "median: generate, BuildSharded, WriteDir, OpenDir, listen"},
			metric{Name: "pages_per_s", Value: float64(n) / base.meter.wall.Seconds(), Unit: "1/s", Samples: n, Note: "queries answered per second"},
			metric{Name: "ok_ratio", Value: float64(base.ok) / float64(n), Unit: "ratio", Samples: n, Note: "200 responses with the right hits"},
			metric{Name: "precision", Value: ratio(float64(base.matched), float64(base.served)), Unit: "ratio", Samples: base.served, Note: "served hits in the in-process top-k"},
			metric{Name: "recall", Value: ratio(float64(base.matched), float64(base.expected)), Unit: "ratio", Samples: base.expected},
			metric{Name: "heap_live_mb", Value: live, Unit: "MiB", Samples: 1, Note: "after set-up, forced GC"},
		)
		lat := latencyMetrics(perKeyMedians(base.lat, len(env.queries)))
		for i := range lat {
			lat[i].Note = "over each query's median of its sends, " + lat[i].Note
		}
		res.metrics = append(res.metrics, lat...)
		res.metrics = append(res.metrics, base.meter.opMetrics(n)...)
		return res, nil
	}

	tr := newTracer(3*n + len(env.queries))
	traced, err := env.pass(n, tr)
	if err != nil {
		return outcome{}, err
	}
	snip := env.replaySnippets(tr)
	if err := tr.writeTSV(spanFile(cfg)); err != nil {
		return outcome{}, err
	}
	lt := tr.layers()
	rt, hd, se := lt["http.roundtrip"], lt["fleet.search_handler"], lt["qaindex.search"]
	e2e := summarize(traced.lat).Mean
	search := meanTotal(se, se.Count)
	res.metrics = []metric{
		{Name: "http.roundtrip_us", Value: us(meanSelf(rt, rt.Count)), Unit: "us", Samples: rt.Count, Note: "client, kernel and net/http: round trip minus handler"},
		{Name: "fleet.search_handler_us", Value: us(meanTotal(hd, hd.Count) - search), Unit: "us", Samples: hd.Count, Note: "mean SearchHandler minus mean SearchInto: gate, snippets, JSON"},
		{Name: "qaindex.search_us", Value: us(search), Unit: "us", Samples: se.Count, Note: "Sharded.SearchInto"},
		{Name: "qaindex.snippet_us", Value: snip * 1e3, Unit: "us", Samples: len(env.queries), Note: "Snippet for every hit of a query, in-process replay"},
		{Name: "qaindex.build_s", Value: median(builds), Unit: "s", Samples: setupReps},
		{Name: "qaindex.write_s", Value: median(writes), Unit: "s", Samples: setupReps},
		{Name: "qaindex.open_s", Value: median(opens), Unit: "s", Samples: setupReps},
		{Name: "qaindex.docs", Value: float64(env.ix.Len()), Unit: "count", Samples: 1},
		{Name: "qaindex.terms", Value: float64(env.ix.Terms()), Unit: "count", Samples: 1, Note: "summed over segments"},
		{Name: "qaindex.hits_per_query", Value: ratio(float64(traced.served), float64(n)), Unit: "count", Samples: n},
		{Name: "runtime.gc_cpu_share", Value: traced.meter.gcShare(), Unit: "ratio", Samples: 1},
		{Name: "trace.residual_share", Value: 1 - (ms(search)+snip)/e2e, Unit: "ratio", Samples: n, Note: "latency outside SearchInto and Snippet"},
		{Name: "trace.overhead_share", Value: e2e/summarize(base.lat).Mean - 1, Unit: "ratio", Samples: n, Note: "traced vs untraced mean latency"},
	}
	res.notes = append(res.notes, fmt.Sprintf("trace: spans written to %s", spanFile(cfg)))
	return res, nil
}

// newSearchEnv generates the corpus, builds, writes and opens the index
// and serves it, recording how long the build, the write and the open
// took.
func newSearchEnv(cfg config) (*searchEnv, error) {
	env := &searchEnv{queries: searchQueries(searchPoolSize, cfg.seed)}
	docs := searchDocs(searchDocCount, cfg.seed)
	t0 := time.Now()
	env.built = qaindex.BuildSharded(docs, searchShards, cfg.workers)
	env.buildS = time.Since(t0).Seconds()

	dir := filepath.Join(cfg.dir, "index")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if err := env.built.WriteDir(dir); err != nil {
		return nil, err
	}
	t1 := time.Now()
	ix, err := qaindex.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	env.writeS, env.openS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	env.ix = ix
	env.fl = fleet.New(fleet.Config{})
	env.traced = &searchTracing{ix: ix}
	env.srv, err = startServer(handlerTree(farmSites(1), env.fl, env.traced, nil, func(h http.Handler) http.Handler {
		return traceHandler(&env.traced.tp, "fleet.search_handler", h)
	}))
	if err != nil {
		env.fl.Close()
		return nil, err
	}
	env.client = newClient(searchConns)
	return env, nil
}

func (e *searchEnv) close() {
	closeClient(e.client)
	if err := e.srv.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stopping search server:", err)
	}
	e.fl.Close()
}

// expectedHits searches every pool query in-process and returns the hit
// lists and their digest.
func expectedHits(ix *qaindex.Sharded, queries []searchQuery, workers int) ([][]hitRef, string) {
	want := parallel.Map(len(queries), workers, func(i int) []hitRef {
		q := queries[i]
		refs := []hitRef{}
		for _, h := range ix.SearchInto(nil, q.Q, searchK, q.Site) {
			refs = append(refs, hitRef{h.Doc.PageURL, math.Float64bits(h.Score)})
		}
		return refs
	})
	return want, hitsDigest(want)
}

// hitsDigest hashes hit lists in order: URL and score bits of each hit,
// with a separator per list.
func hitsDigest(lists [][]hitRef) string {
	h := sha256.New()
	var b [8]byte
	for _, l := range lists {
		for _, r := range l {
			//thorlint:allow no-unchecked-error hash.Hash writes never fail
			h.Write([]byte(r.URL))
			binary.LittleEndian.PutUint64(b[:], r.Score)
			//thorlint:allow no-unchecked-error hash.Hash writes never fail
			h.Write(b[:])
		}
		//thorlint:allow no-unchecked-error hash.Hash writes never fail
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// searchResult is what one closed-loop pass measured.
type searchResult struct {
	meter                     *meter
	lat                       []float64 // ms per request, in request order
	ok                        int
	served, expected, matched int
}

// pass sends requests 0..n-1 over one connection, each when the reply
// to the previous one has been read. A 200 whose hits differ from the
// in-process result fails the run.
func (e *searchEnv) pass(n int, tr *tracer) (*searchResult, error) {
	res := &searchResult{meter: newMeter(), lat: make([]float64, n)}
	defer res.meter.close()
	e.traced.tp.Store(tr)
	defer e.traced.tp.Store(nil)
	runtime.GC()
	res.meter.begin()
	err := e.send(n, tr, res)
	res.meter.end()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// send is the closed loop of a pass: it sends requests 0..n-1, records
// each latency in res.lat and tallies the replies in res.
func (e *searchEnv) send(n int, tr *tracer, res *searchResult) error {
	var body struct {
		Hits []struct {
			URL   string  `json:"url"`
			Score float64 `json:"score"`
		} `json:"hits"`
	}
	for r := 0; r < n; r++ {
		q := e.queries[r%len(e.queries)]
		req, err := http.NewRequest(http.MethodGet, e.srv.base+q.URL(searchK), nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		span := tr.begin("http.roundtrip", -1, int64(r))
		if tr != nil {
			setSpanHeader(req, int64(r), span)
		}
		resp, err := e.client.Do(req)
		if err != nil {
			return err
		}
		body.Hits = body.Hits[:0]
		err = json.NewDecoder(resp.Body).Decode(&body)
		//thorlint:allow no-unchecked-error response-body close after the decode has nothing to report
		resp.Body.Close()
		tr.finish(span)
		res.lat[r] = float64(time.Since(t0)) / 1e6
		if resp.StatusCode != http.StatusOK {
			continue
		}
		if err != nil {
			return fmt.Errorf("search: decoding reply to %q: %w", q.Q, err)
		}
		want := e.want[r%len(e.queries)]
		matched := 0
		for i, h := range body.Hits {
			if i < len(want) && h.URL == want[i].URL && math.Float64bits(h.Score) == want[i].Score {
				matched++
			}
		}
		if matched != len(want) || len(body.Hits) != len(want) {
			return fmt.Errorf("search: request %d %q site=%d served %d hits, %d equal to the in-process top-%d of %d",
				r, q.Q, q.Site, len(body.Hits), matched, searchK, len(want))
		}
		res.ok++
		res.served += len(body.Hits)
		res.expected += len(want)
		res.matched += matched
	}
	return nil
}

// replaySnippets renders, in-process, the snippet of every hit of every
// pool query the way /search does, and returns the mean time per query
// in ms.
func (e *searchEnv) replaySnippets(tr *tracer) float64 {
	var total time.Duration
	for i, q := range e.queries {
		hits := e.ix.SearchInto(nil, q.Q, searchK, q.Site)
		s := tr.begin("qaindex.snippet", -1, int64(i))
		t0 := time.Now()
		for _, h := range hits {
			qaindex.Snippet(h.Doc, q.Q, snippetLen, "«", "»")
		}
		total += time.Since(t0)
		tr.finish(s)
	}
	return ms(total / time.Duration(len(e.queries)))
}

// searchTracing is the index fleet.SearchHandler searches: a
// qaindex.Searcher over the sharded index that records a span around
// each search of a traced pass. The Searcher interface carries no request
// context, so these spans have no parent; the handler's own time is the
// mean handler span minus the mean search span.
type searchTracing struct {
	ix *qaindex.Sharded
	tp atomic.Pointer[tracer]
}

func (s *searchTracing) search(q string, k, site int) []qaindex.Hit {
	t := s.tp.Load()
	i := t.begin("qaindex.search", -1, -1)
	hits := s.ix.SearchInto(nil, q, k, site)
	t.finish(i)
	return hits
}

// Search, SearchSite, SitesSupporting and Len implement qaindex.Searcher
// over the sharded index, timing each search of a traced pass.
func (s *searchTracing) Search(q string, k int) []qaindex.Hit           { return s.search(q, k, -1) }
func (s *searchTracing) SearchSite(q string, k, site int) []qaindex.Hit { return s.search(q, k, site) }
func (s *searchTracing) SitesSupporting(q string) []qaindex.SiteHit     { return s.ix.SitesSupporting(q) }
func (s *searchTracing) Len() int                                       { return s.ix.Len() }

var _ qaindex.Searcher = (*searchTracing)(nil)

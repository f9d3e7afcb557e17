package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/fleet"
	"thor/internal/htmlx"
	"thor/internal/parallel"
	"thor/internal/probe"
	"thor/internal/vector"
)

const (
	// extractSites is how many sites the fleet serves.
	extractSites = 12
	// extractPerSecond sets the closed loop's request count per nominal
	// second: about four fifths of what two connections complete on two
	// cores, so the loop fills most of the nominal time.
	extractPerSecond = 12000
	// replayEvery picks the requests a traced run replays in-process to
	// time the layers inside the handler.
	replayEvery = 4
)

// expectedExtractDigest fingerprints the verdicts the fleet serves for
// the default seed's request pool, in request order. A run with the
// default seed fails if its served verdicts differ.
const expectedExtractDigest = "c0d0ca16d7bd3310"

// extractEnv is the set-up of the extract workload: trained models on
// disk, a fleet over them behind the `thor -serve` handler tree, and the
// request pool with the verdict each request must get.
type extractEnv struct {
	farm   *deepweb.Farm
	fl     *fleet.Fleet
	srv    *server
	client *http.Client
	conns  int
	// tr is the tracer the server-side span wrapper records into; nil
	// outside a traced pass.
	tr atomic.Pointer[tracer]

	// trained holds the models set-up built, before they were saved; the
	// fleet serves the copies it loads from disk.
	trained []*core.Model

	pool []page
	urls []string // POST URL per site
	// want is the exact response body the in-process model's verdict
	// renders to, per pool page; path/found are that verdict.
	want  [][]byte
	path  []string
	found []bool
}

func runExtract(cfg config) (outcome, error) {
	var env *extractEnv
	setup, err := timeSetup(setupReps, func() (func(), error) {
		e, err := newExtractEnv(cfg)
		env = e
		if err != nil {
			return nil, err
		}
		return e.close, nil
	})
	if err != nil {
		return outcome{}, err
	}
	defer env.close()
	if err := env.expect(); err != nil {
		return outcome{}, err
	}
	live := liveHeapMB()

	n := cfg.seconds * extractPerSecond
	if cfg.trace {
		n /= 2 // a traced run makes two passes
	}
	base, err := env.pass(n, nil)
	if err != nil {
		return outcome{}, err
	}
	if cfg.seed == defaultSeed && base.digest != expectedExtractDigest {
		return outcome{}, fmt.Errorf("extract: verdict digest %s for the default seed, recorded %s", base.digest, expectedExtractDigest)
	}
	res := outcome{attempted: n, failed: n - base.ok, notes: []string{
		fmt.Sprintf("loadgen: closed loop, %d connections, %d requests over %d pages of %d sites (%.1f s)",
			env.conns, n, len(env.pool), extractSites, base.meter.wall.Seconds()),
		fmt.Sprintf("extract: verdict digest %s over the first %d requests (every 200 equals the in-process verdict)", base.digest, len(env.pool)),
	}}
	if !cfg.trace {
		c, id, tot := env.score(n)
		res.metrics = append(res.metrics,
			metric{Name: "setup_s", Value: setup, Unit: "s", Samples: setupReps, Note: "median: train+save 12 models, open fleet, cold-load"},
			metric{Name: "pages_per_s", Value: float64(n) / base.meter.wall.Seconds(), Unit: "1/s", Samples: n, Note: "pages extracted per second"},
			metric{Name: "ok_ratio", Value: float64(base.ok) / float64(n), Unit: "ratio", Samples: n, Note: "200 responses"},
			metric{Name: "precision", Value: ratio(float64(c), float64(id)), Unit: "ratio", Samples: id, Note: "served paths vs truth markers"},
			metric{Name: "recall", Value: ratio(float64(c), float64(tot)), Unit: "ratio", Samples: tot},
			metric{Name: "heap_live_mb", Value: live, Unit: "MiB", Samples: 1, Note: "after set-up, forced GC"},
		)
		res.metrics = append(res.metrics, latencyMetrics(base.lat)...)
		res.metrics = append(res.metrics, base.meter.opMetrics(n)...)
		return res, nil
	}

	tr := newTracer(2*n + 8*(n/replayEvery+1))
	traced, err := env.pass(n, tr)
	if err != nil {
		return outcome{}, err
	}
	if traced.digest != base.digest {
		return outcome{}, fmt.Errorf("extract: traced pass digest %s differs from untraced %s", traced.digest, base.digest)
	}
	if err := env.replay(n, tr); err != nil {
		return outcome{}, err
	}
	if err := tr.writeTSV(spanFile(cfg)); err != nil {
		return outcome{}, err
	}
	res.metrics = env.layers(tr.layers(), n, traced, base)
	onboardFile := filepath.Join(cfg.out, "spans-onboard.tsv")
	onboard, err := traceOnboarding(cfg, extractSites, onboardFile)
	if err != nil {
		return outcome{}, err
	}
	res.metrics = append(res.metrics, onboard...)
	res.notes = append(res.notes, fmt.Sprintf("trace: spans written to %s and %s", spanFile(cfg), onboardFile))
	return res, nil
}

// newExtractEnv trains and saves a model per site as
// `thor -site i -save-model` does by default, opens a fleet over the
// model directory behind a loopback listener, and cold-loads every
// model with one request each. The models are the same in every run;
// the seed draws the pages they are asked to extract from.
func newExtractEnv(cfg config) (*extractEnv, error) {
	dir, err := os.MkdirTemp(cfg.dir, "models-")
	if err != nil {
		return nil, err
	}
	farm := farmSites(extractSites)
	prober := &probe.Prober{Plan: cliPlan(), Labeler: deepweb.Labeler()}
	var trained []*core.Model
	for i, s := range farm.Sites {
		ccfg := core.DefaultConfig()
		ccfg.Seed = cliSeed + int64(i)
		ccfg.Workers = cfg.workers
		m, err := core.NewExtractor(ccfg).BuildModel(prober.ProbeSite(s).Pages)
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", siteName(i), err)
		}
		if err := m.SaveFile(filepath.Join(dir, siteName(i)+".thor.model.gz")); err != nil {
			return nil, err
		}
		trained = append(trained, m)
	}
	env := &extractEnv{farm: farm, fl: fleet.New(fleet.Config{Dir: dir}), conns: min(2, cfg.workers), trained: trained}
	env.srv, err = startServer(handlerTree(farm, env.fl, nil, func(h http.Handler) http.Handler {
		return traceHandler(&env.tr, "fleet.handler", h)
	}, nil))
	if err != nil {
		env.fl.Close()
		return nil, err
	}
	env.client = newClient(env.conns)
	env.pool = requestPool(farm.Sites, cfg.seed)
	for i := range farm.Sites {
		env.urls = append(env.urls, env.srv.base+"/extract/"+siteName(i))
	}
	for i := range farm.Sites {
		p := env.pool[i] // the pool interleaves sites, so its first pages cover them all
		resp, err := env.client.Post(env.urls[p.Site], "text/html", bytes.NewReader(p.Body))
		if err != nil {
			env.close()
			return nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		//thorlint:allow no-unchecked-error response-body close after a full read has nothing to report
		resp.Body.Close()
		if err == nil {
			err = checkStatus(resp, "warm-up /extract/"+siteName(i))
		}
		if err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

func (e *extractEnv) close() {
	closeClient(e.client)
	if err := e.srv.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stopping fleet server:", err)
	}
	e.fl.Close()
}

// expect computes, in-process, each pool page's verdict from the model
// the fleet serves, and the exact response body it renders to. The
// model the fleet loaded from disk must give every pool page — none of
// them seen in training — the verdict the model set-up built and saved
// gives it.
func (e *extractEnv) expect() error {
	ctx := context.Background()
	type pagelet struct {
		Path string `json:"path"`
	}
	for i, p := range e.pool {
		m, err := e.fl.Get(ctx, siteName(p.Site))
		if err != nil {
			return err
		}
		path, found, err := m.ApplyHTMLBytes(ctx, p.Body)
		if err != nil {
			return err
		}
		mpath, mfound, err := e.trained[p.Site].ApplyHTMLBytes(ctx, p.Body)
		if err != nil {
			return err
		}
		if mpath != path || mfound != found {
			return fmt.Errorf("extract: %s reloaded from disk gives %q (found %v) for pool page %d, the model it was saved from %q (found %v)",
				siteName(p.Site), path, found, i, mpath, mfound)
		}
		body := struct {
			Pagelets []pagelet `json:"pagelets"`
		}{Pagelets: []pagelet{}}
		if found {
			body.Pagelets = append(body.Pagelets, pagelet{path})
		}
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		e.want = append(e.want, append(b, '\n'))
		e.path = append(e.path, path)
		e.found = append(e.found, found)
	}
	e.trained = nil // the timed phase holds only the fleet's models
	return nil
}

// score tallies the served paths of n requests against the truth
// markers: (correct, identified, truth pagelets).
func (e *extractEnv) score(n int) (c, id, tot int) {
	for r := 0; r < n; r++ {
		i := r % len(e.pool)
		tot += len(e.pool[i].Truth)
		if e.found[i] {
			id++
			if slices.Contains(e.pool[i].Truth, e.path[i]) {
				c++
			}
		}
	}
	return c, id, tot
}

// extractResult is what one closed-loop pass measured.
type extractResult struct {
	meter  *meter
	lat    []float64 // ms per request, in request order
	ok     int
	digest string
}

// pass sends requests 0..n-1 — request r posts pool page r mod the pool
// size — over e.conns connections, each sending its next request when
// the previous reply has been read. A 200 whose body differs from the
// in-process verdict is a wrong answer and fails the run. The digest
// covers the served bodies of the first pass over the pool, in request
// order, so it depends on the seed and the models but not on n.
func (e *extractEnv) pass(n int, tr *tracer) (*extractResult, error) {
	res := &extractResult{meter: newMeter(), lat: make([]float64, n)}
	defer res.meter.close()
	sums := make([]uint64, n)
	status := make([]int16, n)
	var next atomic.Int64
	errs := make([]error, e.conns)
	e.tr.Store(tr)
	defer e.tr.Store(nil)
	runtime.GC()
	res.meter.begin()
	// One worker per connection, all running at once.
	parallel.ForEach(e.conns, e.conns, func(c int) {
		var buf bytes.Buffer
		for {
			r := int(next.Add(1) - 1)
			if r >= n {
				return
			}
			p := &e.pool[r%len(e.pool)]
			req, err := http.NewRequest(http.MethodPost, e.urls[p.Site], bytes.NewReader(p.Body))
			if err != nil {
				errs[c] = err
				return
			}
			req.Header.Set("Content-Type", "text/html")
			t0 := time.Now()
			span := tr.begin("http.roundtrip", -1, int64(r))
			if tr != nil {
				setSpanHeader(req, int64(r), span)
			}
			resp, err := e.client.Do(req)
			if err != nil {
				errs[c] = err
				return
			}
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			//thorlint:allow no-unchecked-error response-body close after a full read has nothing to report
			resp.Body.Close()
			tr.finish(span)
			res.lat[r] = float64(time.Since(t0)) / 1e6
			if err != nil {
				errs[c] = err
				return
			}
			status[r] = int16(resp.StatusCode)
			h := fnv.New64a()
			//thorlint:allow no-unchecked-error hash.Hash writes never fail
			h.Write(buf.Bytes())
			sums[r] = h.Sum64()
		}
	})
	res.meter.end()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	digest := sha256.New()
	var b [8]byte
	for r := 0; r < n; r++ {
		i := r % len(e.pool)
		h := fnv.New64a()
		//thorlint:allow no-unchecked-error hash.Hash writes never fail
		h.Write(e.want[i])
		if status[r] == http.StatusOK {
			res.ok++
			if sums[r] != h.Sum64() {
				return nil, fmt.Errorf("extract: request %d (%s) served a verdict other than the model's %q", r, siteName(e.pool[i].Site), e.want[i])
			}
		}
		if r < len(e.pool) {
			//thorlint:allow no-unchecked-error hash.Hash writes never fail
			digest.Write(binary.LittleEndian.AppendUint64(b[:0], sums[r]))
		}
	}
	res.digest = hex.EncodeToString(digest.Sum(nil))[:16]
	return res, nil
}

// replay re-runs every replayEvery-th request in-process, timing the
// calls the handler makes — Fleet.Get and Model.ApplyHTMLBytes — and,
// separately, the stages inside ApplyHTMLBytes through their public
// entry points: parse, tag signature, interning, nearest-centroid
// assignment. The wrapper match has no public entry point; its time is
// what ApplyHTMLBytes takes beyond the four stages.
func (e *extractEnv) replay(n int, tr *tracer) error {
	ctx := context.Background()
	parser := htmlx.NewParser()
	sig := corpus.NewSignatureScratch()
	var is vector.InternScratch
	weights := map[*core.Model]vector.Weighting{}
	for r := 0; r < n; r += replayEvery {
		p := &e.pool[r%len(e.pool)]
		req := int64(r)
		root := tr.begin("replay.handler", -1, req)
		s := tr.begin("fleet.get", root, req)
		m, err := e.fl.Get(ctx, siteName(p.Site))
		tr.finish(s)
		if err != nil {
			return err
		}
		s = tr.begin("core.apply", root, req)
		_, _, err = m.ApplyHTMLBytes(ctx, p.Body)
		tr.finish(s)
		tr.finish(root)
		if err != nil {
			return err
		}

		w, ok := weights[m]
		if !ok {
			w = vector.DFWeighting(m.Dict, m.DF, m.NDocs)
			weights[m] = w
		}
		root = tr.begin("replay.stages", -1, req)
		s = tr.begin("htmlx.parse", root, req)
		tree := parser.Parse(string(p.Body))
		tr.finish(s)
		s = tr.begin("corpus.signature", root, req)
		counts := sig.TagCounts(tree)
		tr.finish(s)
		s = tr.begin("vector.intern", root, req)
		v := m.Dict.InternCounts(counts, w, &is)
		tr.finish(s)
		s = tr.begin("vector.assign", root, req)
		vector.AssignNearest(v, m.Centroids)
		tr.finish(s)
		tr.finish(root)
		parser.Release()
	}
	return nil
}

// layers renders the extract workload's per-layer metrics: mean self
// times per request of the traced HTTP pass, and mean times per call of
// the in-process replay.
func (e *extractEnv) layers(lt map[string]layerTime, n int, tr, base *extractResult) []metric {
	rt, hd := lt["http.roundtrip"], lt["fleet.handler"]
	get, apply := lt["fleet.get"], lt["core.apply"]
	stages := []string{"htmlx.parse", "corpus.signature", "vector.intern", "vector.assign"}
	mean := func(name string) time.Duration { return meanTotal(lt[name], lt[name].Count) }
	wrapper := mean("core.apply")
	var ms []metric
	for _, s := range stages {
		wrapper -= mean(s)
		ms = append(ms, metric{Name: s + "_us", Value: us(mean(s)), Unit: "us", Samples: lt[s].Count, Note: "in-process replay"})
	}
	found := 0
	for r := 0; r < n; r++ {
		if e.found[r%len(e.pool)] {
			found++
		}
	}
	rtMean, hdMean := mean("http.roundtrip"), mean("fleet.handler")
	return append(ms,
		metric{Name: "http.roundtrip_us", Value: us(meanSelf(rt, rt.Count)), Unit: "us", Samples: rt.Count, Note: "client, kernel and net/http: round trip minus handler"},
		metric{Name: "fleet.handler_us", Value: us(hdMean), Unit: "us", Samples: hd.Count, Note: "fleet.Handler ServeHTTP, gate wait included"},
		metric{Name: "fleet.get_us", Value: us(mean("fleet.get")), Unit: "us", Samples: get.Count, Note: "in-process replay"},
		metric{Name: "core.apply_us", Value: us(mean("core.apply")), Unit: "us", Samples: apply.Count, Note: "in-process replay"},
		metric{Name: "core.wrapper_us", Value: us(wrapper), Unit: "us", Samples: apply.Count, Note: "apply minus its four public stages"},
		metric{Name: "core.found_ratio", Value: float64(found) / float64(n), Unit: "ratio", Samples: n},
		metric{Name: "fleet.shed", Value: float64(e.fl.Stats().Shed), Unit: "count", Samples: 1},
		metric{Name: "runtime.gc_cpu_share", Value: tr.meter.gcShare(), Unit: "ratio", Samples: 1},
		metric{Name: "trace.residual_share", Value: 1 - float64(mean("fleet.get")+mean("core.apply"))/float64(rtMean), Unit: "ratio", Samples: rt.Count,
			Note: "round trip outside Fleet.Get and ApplyHTMLBytes"},
		metric{Name: "trace.overhead_share", Value: summarize(tr.lat).Mean/summarize(base.lat).Mean - 1, Unit: "ratio", Samples: n, Note: "traced vs untraced mean latency"},
	)
}

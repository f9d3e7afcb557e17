package experiments

import (
	"context"
	"fmt"
	"time"

	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/probe"
	"thor/internal/quality"
)

// serveModelConfig is the canonical per-site serving-model configuration
// shared by the serving benchmarks: the experiment's K/restarts/seed with
// a serial inner pipeline, so site-level fan-out never nests parallelism.
func serveModelConfig(o Options, siteID int) core.Config {
	cfg := core.DefaultConfig()
	cfg.K = o.K
	cfg.Restarts = o.KMRestarts
	cfg.Seed = o.Seed + int64(siteID)
	cfg.Workers = 1
	return cfg
}

// buildServeModel trains one site's serving model from its probed pages.
func buildServeModel(o Options, siteID int, pages []*corpus.Page) *core.Model {
	m, err := core.NewExtractor(serveModelConfig(o, siteID)).BuildModel(pages)
	if err != nil {
		//thorlint:allow no-panic-in-lib programmer-error guard; the default config names a registered clusterer
		panic("experiments: " + err.Error())
	}
	return m
}

// ServeResult is the machine-readable outcome of ServeBenchmark: the
// one-time model-build cost against the per-page cost of the pooled
// ApplyHTML that serves raw request bytes, plus the serving quality the
// latency buys. The embedded table is the human-readable rendering.
type ServeResult struct {
	*TableResult

	// Pages is the number of fresh pages served.
	Pages int
	// BuildSeconds is the serial model-build total across sites.
	BuildSeconds float64
	// ApplySeconds is the serial per-page ApplyHTML total over the fresh
	// pages.
	ApplySeconds float64
	// Precision and Recall score the served extractions against ground
	// truth.
	Precision, Recall float64
}

// ServeBenchmark measures the staged engine's train-once/serve-many
// split: for each site, the one-time cost of BuildModel over the probed
// sample versus the per-page cost of serving a second, fresh probe round
// the model never saw through the pooled Model.ApplyHTML pipeline (arena
// parse, scratch signature, direct ID-space interning). Timing is serial
// (one site, one page at a time), like the paper's timing figures. The
// fresh pages are also scored against ground truth through Model.Apply,
// outside the timed loop, so the table shows what serving quality the
// latency buys.
func ServeBenchmark(o Options) *ServeResult {
	sites := deepweb.NewSites(o.Sites, o.Seed)
	trainProber := &probe.Prober{Plan: probe.NewPlan(o.DictWords, o.Nonsense, o.Seed+1000), Labeler: deepweb.Labeler()}
	// A different plan seed draws different dictionary probes: the served
	// pages answer queries the training sample never issued.
	serveProber := &probe.Prober{Plan: probe.NewPlan(o.DictWords, o.Nonsense, o.Seed+2000), Labeler: deepweb.Labeler()}

	ctx := context.Background()
	out := &ServeResult{}
	var counter quality.Counter
	for _, s := range sites {
		train := trainProber.ProbeSite(s)

		start := time.Now()
		m := buildServeModel(o, s.ID(), train.Pages)
		out.BuildSeconds += time.Since(start).Seconds()

		fresh := serveProber.ProbeSite(s)

		// ApplyHTML over the raw bytes a server would see. The timed loop
		// discards the verdicts; trees, signatures, and vectors live in
		// pooled scratch.
		start = time.Now()
		for _, p := range fresh.Pages {
			if _, _, err := m.ApplyHTML(ctx, p.HTML); err != nil {
				//thorlint:allow no-panic-in-lib programmer-error guard; ApplyHTML errors only on ctx cancellation or empty models
				panic("experiments: " + err.Error())
			}
		}
		out.ApplySeconds += time.Since(start).Seconds()
		out.Pages += len(fresh.Pages)

		// Score the same verdicts as pagelets on the pages' own trees.
		var pagelets []*core.Pagelet
		for _, p := range fresh.Pages {
			pls, err := m.Apply(p)
			if err != nil {
				//thorlint:allow no-panic-in-lib programmer-error guard; Apply errors only on nil pages or empty models
				panic("experiments: " + err.Error())
			}
			pagelets = append(pagelets, pls...)
		}
		c, i, t := core.Score(pagelets, fresh.Pages)
		counter.Add(c, i, t)
	}

	pr := counter.PR()
	out.Precision, out.Recall = pr.Precision, pr.Recall

	res := &TableResult{
		Title:  "staged serving: one-time model build vs per-page apply (fresh probe round)",
		Header: []string{"seconds", "unit-ms", "unit/sec"},
	}
	res.Rows = append(res.Rows, Row{
		Label: "build/site",
		Values: []float64{
			out.BuildSeconds,
			1000 * out.BuildSeconds / float64(len(sites)),
			float64(len(sites)) / out.BuildSeconds,
		},
	})
	res.Rows = append(res.Rows, Row{
		Label: "apply/page",
		Values: []float64{
			out.ApplySeconds,
			1000 * out.ApplySeconds / float64(out.Pages),
			float64(out.Pages) / out.ApplySeconds,
		},
	})
	res.Notes = append(res.Notes,
		"unit = site for the build row, page for the apply row (pooled ApplyHTML); seconds are serial totals",
		fmt.Sprintf("served %d fresh pages: precision %.3f, recall %.3f", out.Pages, pr.Precision, pr.Recall),
	)
	out.TableResult = res
	return out
}

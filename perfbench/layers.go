package main

import (
	"fmt"
	"time"
)

// unitSpec names a metric and its unit.
type unitSpec struct{ Name, Unit string }

// endToEnd lists the metrics an untraced run prints, in BENCHMARK.json's
// order. Every workload reports all of them.
var endToEnd = []unitSpec{
	{"setup_s", "s"},
	{"pages_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"p99_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"precision", "ratio"},
	{"recall", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_peak_mb", "MiB"},
	{"heap_live_mb", "MiB"},
}

// perLayer lists the metrics a traced run prints, in BENCHMARK.json's
// order. A traced run prints all of them; a layer its workload does not
// run reports 0.
var perLayer = []unitSpec{
	// onboarding, traced by the extract workload
	{"probe.ms_per_page", "ms"},
	{"htmlx.parse_us_per_page", "us"},
	{"corpus.signature_us_per_page", "us"},
	{"vector.tfidf_ms", "ms"},
	{"cluster.kmeans_ms", "ms"},
	{"phase2.candidates_ms", "ms"},
	{"phase2.candidates_per_page", "count"},
	{"phase2.subtree_sets_ms", "ms"},
	{"phase2.sets", "count"},
	{"phase2.kept_set_ratio", "ratio"},
	{"phase2.rank_ms", "ms"},
	{"phase2.select_ms", "ms"},
	{"wrapper.compile_ms", "ms"},
	{"persist.save_ms", "ms"},
	{"persist.model_kb", "KiB"},
	{"persist.load_ms", "ms"},
	{"onboard.gc_cpu_share", "ratio"},
	{"onboard.residual_share", "ratio"},
	{"onboard.overhead_share", "ratio"},
	// extract
	{"http.roundtrip_us", "us"},
	{"fleet.handler_us", "us"},
	{"fleet.get_us", "us"},
	{"core.apply_us", "us"},
	{"htmlx.parse_us", "us"},
	{"corpus.signature_us", "us"},
	{"vector.intern_us", "us"},
	{"vector.assign_us", "us"},
	{"core.wrapper_us", "us"},
	{"core.found_ratio", "ratio"},
	{"fleet.shed", "count"},
	// search
	{"fleet.search_handler_us", "us"},
	{"qaindex.search_us", "us"},
	{"qaindex.snippet_us", "us"},
	{"qaindex.build_s", "s"},
	{"qaindex.write_s", "s"},
	{"qaindex.open_s", "s"},
	{"qaindex.docs", "count"},
	{"qaindex.terms", "count"},
	{"qaindex.hits_per_query", "count"},
	// every workload
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.residual_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// complete checks ms against the list a mode must print — every name
// known and in its unit — and returns ms in the list's order. A missing
// metric is an error unless fill is set; then it is a layer the
// workload does not run, reported as 0.
func complete(list []unitSpec, ms []metric, fill bool) ([]metric, error) {
	got := make(map[string]metric, len(ms))
	for _, m := range ms {
		got[m.Name] = m
	}
	out := make([]metric, 0, len(list))
	for _, u := range list {
		m, ok := got[u.Name]
		if !ok && !fill {
			return nil, fmt.Errorf("metric %s not reported", u.Name)
		}
		if !ok {
			m = metric{Name: u.Name, Unit: u.Unit, Note: "layer not run by this workload"}
		}
		if m.Unit != u.Unit {
			return nil, fmt.Errorf("metric %s in %s, want %s", u.Name, m.Unit, u.Unit)
		}
		delete(got, u.Name)
		out = append(out, m)
	}
	for name := range got {
		return nil, fmt.Errorf("metric %s is not listed", name)
	}
	return out, nil
}

// us, ms and per turn a span aggregate into a mean per op.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// meanSelf and meanTotal divide a layer's self or total time by n ops.
func meanSelf(lt layerTime, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return lt.Self / time.Duration(n)
}

func meanTotal(lt layerTime, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return lt.Total / time.Duration(n)
}

// onboardLayers renders the onboarding per-layer metrics. Stage times
// are self times per site, or per page where the name says so.
func onboardLayers(lt map[string]layerTime, tr, base *onboardResult) []metric {
	sites, pages := len(tr.siteMS), tr.pages
	perSite := func(name, stage string) metric {
		return metric{Name: name, Value: ms(meanSelf(lt[stage], sites)), Unit: "ms", Samples: lt[stage].Count, Note: "self time per site"}
	}
	root := lt["onboard.site"]
	trPerPage := tr.meter.wall.Seconds() / float64(pages)
	basePerPage := base.meter.wall.Seconds() / float64(base.pages)
	return []metric{
		{Name: "probe.ms_per_page", Value: ms(meanSelf(lt["probe.site"], pages)), Unit: "ms", Samples: pages, Note: "Prober.ProbeSite over HTTP"},
		{Name: "htmlx.parse_us_per_page", Value: us(meanSelf(lt["htmlx.parse"], pages)), Unit: "us", Samples: lt["htmlx.parse"].Count, Note: "first Page.Tree()"},
		{Name: "corpus.signature_us_per_page", Value: us(meanSelf(lt["corpus.signature"], pages)), Unit: "us", Samples: lt["corpus.signature"].Count, Note: "Page.TagSignature"},
		perSite("vector.tfidf_ms", "vector.tfidf"),
		perSite("cluster.kmeans_ms", "cluster.kmeans"),
		perSite("phase2.candidates_ms", "phase2.candidates"),
		{Name: "phase2.candidates_per_page", Value: ratio(float64(tr.candidates), float64(tr.candPages)), Unit: "count", Samples: tr.candPages},
		perSite("phase2.subtree_sets_ms", "phase2.subtree_sets"),
		{Name: "phase2.sets", Value: ratio(float64(tr.sets), float64(tr.clusterRuns)), Unit: "count", Samples: tr.clusterRuns, Note: "common subtree sets per phase-2 cluster"},
		{Name: "phase2.kept_set_ratio", Value: ratio(float64(tr.keptSets), float64(tr.sets)), Unit: "ratio", Samples: tr.sets, Note: "sets passing the min-support filter"},
		perSite("phase2.rank_ms", "phase2.rank"),
		perSite("phase2.select_ms", "phase2.select"),
		perSite("wrapper.compile_ms", "wrapper.compile"),
		perSite("persist.save_ms", "persist.save"),
		{Name: "persist.model_kb", Value: float64(tr.modelBytes) / 1024 / float64(sites), Unit: "KiB", Samples: sites, Note: "model file size per site"},
		perSite("persist.load_ms", "persist.load"),
		{Name: "onboard.gc_cpu_share", Value: tr.meter.gcShare(), Unit: "ratio", Samples: 1},
		{Name: "onboard.residual_share", Value: ratio(float64(root.Self), float64(root.Total)), Unit: "ratio", Samples: root.Count, Note: "site time outside every stage span"},
		{Name: "onboard.overhead_share", Value: trPerPage/basePerPage - 1, Unit: "ratio", Samples: pages, Note: "traced vs untraced seconds per page"},
	}
}

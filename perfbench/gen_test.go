package main

import (
	"crypto/sha256"
	"encoding/json"
	"testing"
)

// digestOf hashes v's JSON encoding: identical inputs hash identically.
func digestOf(t *testing.T, v any) [32]byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	gen := func(seed int64) []page { return requestPool(farmSites(extractSites).Sites, seed) }
	a, b, c := gen(5), gen(5), gen(6)
	if digestOf(t, a) != digestOf(t, b) {
		t.Fatal("same seed, different request streams")
	}
	if digestOf(t, a) == digestOf(t, c) {
		t.Fatal("different seeds, identical request streams")
	}
	if want := extractSites * (planDictWords + planNonsense); len(a) != want {
		t.Fatalf("%d requests, want %d", len(a), want)
	}
	for i, p := range a[:extractSites] {
		if p.Site != i {
			t.Fatalf("request %d goes to site %d; the stream must interleave sites round-robin", i, p.Site)
		}
	}
	withTruth := 0
	for _, p := range a {
		if len(p.Truth) > 0 {
			withTruth++
		}
	}
	if withTruth == 0 || withTruth == len(a) {
		t.Fatalf("%d of %d pages carry truth pagelets; want answer pages and no-match/error pages", withTruth, len(a))
	}
}

func TestRequestPlanNeverReusesTrainingKeywords(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		site := int(seed) * 3
		plan := trainingPlan(seed, site)
		if seed%2 == 0 {
			plan = cliPlan()
		}
		train := map[string]bool{}
		for _, kw := range plan.Keywords() {
			train[kw] = true
		}
		req := requestPlan(seed, site, plan)
		if len(req.DictionaryWords) != planDictWords || len(req.NonsenseWords) != planNonsense {
			t.Fatalf("seed %d: request plan %s", seed, req)
		}
		for _, kw := range req.Keywords() {
			if train[kw] {
				t.Fatalf("seed %d: request keyword %q is a training keyword", seed, kw)
			}
		}
		if other := requestPlan(seed, site+1, plan); digestOf(t, other) == digestOf(t, req) {
			t.Fatalf("seed %d: sites %d and %d drew the same plan", seed, site, site+1)
		}
	}
}

func TestQueryStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := searchQueries(500, 3), searchQueries(500, 3), searchQueries(500, 4)
	if digestOf(t, a) != digestOf(t, b) {
		t.Fatal("same seed, different query streams")
	}
	if digestOf(t, a) == digestOf(t, c) {
		t.Fatal("different seeds, identical query streams")
	}
	filtered := 0
	for _, q := range a {
		if q.Site >= 0 {
			filtered++
		}
	}
	if filtered != len(a)/siteEvery {
		t.Errorf("%d of %d queries carry site=, want %d", filtered, len(a), len(a)/siteEvery)
	}
	if got, want := (searchQuery{"red fox", 3}).URL(10), "/search?q=red+fox&k=10&site=3"; got != want {
		t.Errorf("URL = %q, want %q", got, want)
	}
}

func TestSearchCorpusIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := searchDocs(3000, 8), searchDocs(3000, 8), searchDocs(3000, 9)
	if digestOf(t, a) != digestOf(t, b) {
		t.Fatal("same seed, different corpora")
	}
	if digestOf(t, a) == digestOf(t, c) {
		t.Fatal("different seeds, identical corpora")
	}
	urls := map[string]bool{}
	for _, d := range a {
		if urls[d.PageURL] {
			t.Fatalf("URL %s repeats; hit lists are compared by URL", d.PageURL)
		}
		urls[d.PageURL] = true
	}
}

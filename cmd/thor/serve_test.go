package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"thor/internal/core"
	"thor/internal/corpus"
	"thor/internal/deepweb"
	"thor/internal/fleet"
	"thor/internal/probe"
)

// pageFromHTML wraps raw HTML the way the /extract endpoint does.
func pageFromHTML(html string) *corpus.Page { return &corpus.Page{HTML: html} }

// trainModel builds a small model the way -save-model would.
func trainModel(t *testing.T) *core.Model {
	t.Helper()
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 2, Seed: 31})
	prober := &probe.Prober{Plan: probe.NewPlan(80, 8, 1), Labeler: deepweb.Labeler()}
	col := prober.ProbeSite(site)
	m, err := core.NewExtractor(core.DefaultConfig()).BuildModel(col.Pages)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// singleModelFleet wraps one model as a one-entry fleet, the -serve
// -model wiring without a -models directory.
func singleModelFleet(t *testing.T, m *core.Model) *fleet.Fleet {
	t.Helper()
	fl := fleet.New(fleet.Config{})
	t.Cleanup(fl.Close)
	fl.SetDefault(m)
	return fl
}

func TestExtractEndpoint(t *testing.T) {
	m := trainModel(t)

	// Round the model through disk first: the endpoint's contract is
	// serving from a *saved* model, with no training state available.
	path := filepath.Join(t.TempDir(), "m.gz")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serveHandler(deepweb.NewFarm(1, 7), singleModelFleet(t, loaded), nil))
	defer srv.Close()

	// Fresh pages from queries the training run never issued.
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 2, Seed: 31})
	prober := &probe.Prober{Plan: probe.NewPlan(40, 4, 909), Labeler: deepweb.Labeler()}
	fresh := prober.ProbeSite(site)

	served := 0
	for _, page := range fresh.Pages {
		res, err := http.Post(srv.URL+"/extract", "text/html", strings.NewReader(page.HTML))
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("POST /extract: %s", res.Status)
		}
		if ct := res.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q", ct)
		}
		var body struct {
			Pagelets []struct {
				Path string `json:"path"`
			} `json:"pagelets"`
		}
		err = json.NewDecoder(res.Body).Decode(&body)
		if cerr := res.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}

		// The endpoint must agree with a direct Apply on the same HTML.
		want, err := loaded.Apply(pageFromHTML(page.HTML))
		if err != nil {
			t.Fatal(err)
		}
		if len(body.Pagelets) != len(want) {
			t.Fatalf("served %d pagelets, Apply returns %d", len(body.Pagelets), len(want))
		}
		for i, pl := range body.Pagelets {
			if pl.Path != want[i].Path {
				t.Fatalf("served path %q, Apply returns %q", pl.Path, want[i].Path)
			}
			served++
		}
	}
	if served == 0 {
		t.Fatal("no pagelet served from any fresh page; the test is vacuous")
	}
}

func TestExtractEndpointRejections(t *testing.T) {
	srv := httptest.NewServer(serveHandler(deepweb.NewFarm(1, 7), singleModelFleet(t, trainModel(t)), nil))
	defer srv.Close()

	res, err := http.Get(srv.URL + "/extract")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /extract: %s, want 405", res.Status)
	}
	if allow := res.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}

	res, err = http.Post(srv.URL+"/extract", "text/html", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("empty POST: %s, want 400", res.Status)
	}

	res, err = http.Post(srv.URL+"/extract", "text/html",
		strings.NewReader(strings.Repeat("x", fleet.MaxExtractBody+1)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST: %s, want 413", res.Status)
	}
}

// legacyExtractHandler is a verbatim copy of the single-model handler
// this command shipped before the fleet refactor. It exists only as the
// contract oracle for TestFleetHandlerMatchesLegacyByteForByte: the
// fleet's /extract route must stay bit-identical to it.
func legacyExtractHandler(m *core.Model) http.Handler {
	type extractedPagelet struct {
		Path string `json:"path"`
	}
	type extractResponse struct {
		Pagelets []extractedPagelet `json:"pagelets"`
	}
	const maxExtractBody = 4 << 20
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST a page's HTML to /extract", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxExtractBody+1))
		if err != nil {
			http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > maxExtractBody {
			http.Error(w, fmt.Sprintf("page exceeds %d bytes", maxExtractBody),
				http.StatusRequestEntityTooLarge)
			return
		}
		if len(body) == 0 {
			http.Error(w, "empty request body; POST the page's HTML", http.StatusBadRequest)
			return
		}
		path, found, err := m.ApplyHTML(r.Context(), string(body))
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := extractResponse{Pagelets: []extractedPagelet{}}
		if found {
			resp.Pagelets = append(resp.Pagelets, extractedPagelet{Path: path})
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			log.Printf("encoding /extract response: %v", err)
		}
	})
}

// TestFleetHandlerMatchesLegacyByteForByte is the refactor's contract
// test: a one-entry fleet answering POST /extract must be byte-identical
// — status, Content-Type, and full body — to the pre-refactor
// single-model handler, for every clustering approach and for the error
// paths (405, empty body, 413).
func TestFleetHandlerMatchesLegacyByteForByte(t *testing.T) {
	site := deepweb.NewSite(deepweb.SiteConfig{ID: 2, Seed: 31})
	prober := &probe.Prober{Plan: probe.NewPlan(40, 4, 1), Labeler: deepweb.Labeler()}
	col := prober.ProbeSite(site)
	fresh := &probe.Prober{Plan: probe.NewPlan(12, 2, 909), Labeler: deepweb.Labeler()}
	freshPages := fresh.ProbeSite(site).Pages
	oversized := strings.Repeat("x", fleet.MaxExtractBody+1)

	for a := core.Approach(0); a < core.NumApproaches; a++ {
		cfg := core.DefaultConfig()
		cfg.Approach = a
		cfg.Workers = 1
		m, err := core.NewExtractor(cfg).BuildModel(col.Pages)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		legacy := legacyExtractHandler(m)
		modern := serveHandler(deepweb.NewFarm(1, 7), singleModelFleet(t, m), nil)

		check := func(name, method, body string) {
			t.Helper()
			run := func(h http.Handler) *httptest.ResponseRecorder {
				req := httptest.NewRequest(method, "/extract", strings.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				return rec
			}
			want, got := run(legacy), run(modern)
			if got.Code != want.Code {
				t.Errorf("%s/%s: status %d, legacy %d", a, name, got.Code, want.Code)
			}
			if gc, wc := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); gc != wc {
				t.Errorf("%s/%s: Content-Type %q, legacy %q", a, name, gc, wc)
			}
			if got.Body.String() != want.Body.String() {
				t.Errorf("%s/%s: body %q, legacy %q", a, name, got.Body.String(), want.Body.String())
			}
		}

		for i, page := range freshPages {
			check(fmt.Sprintf("page%d", i), http.MethodPost, page.HTML)
		}
		check("get", http.MethodGet, "")
		check("empty", http.MethodPost, "")
		check("oversized", http.MethodPost, oversized)
	}
}

// TestServeHandlerKeepsFarmRoutes pins that mounting the fleet routes
// does not shadow the simulated deep-web farm.
func TestServeHandlerKeepsFarmRoutes(t *testing.T) {
	srv := httptest.NewServer(serveHandler(deepweb.NewFarm(2, 7), singleModelFleet(t, trainModel(t)), nil))
	defer srv.Close()

	for _, path := range []string{"/", "/site/0/"} {
		res, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Errorf("farm route %s: %s, want 200", path, res.Status)
		}
	}
}

func TestServeHandlerWithoutFleetHasNoExtract(t *testing.T) {
	srv := httptest.NewServer(serveHandler(deepweb.NewFarm(1, 7), nil, nil))
	defer srv.Close()

	res, err := http.Post(srv.URL+"/extract", "text/html", strings.NewReader("<html></html>"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode == http.StatusOK {
		t.Error("POST /extract succeeded with no fleet configured")
	}
}

// TestRunServerShutdownDrainsInFlight pins the graceful-shutdown order:
// on a stop signal, in-flight fleet extractions finish with 200 — the
// registry closes only after the drain — and runServer returns nil.
func TestRunServerShutdownDrainsInFlight(t *testing.T) {
	m := trainModel(t)
	fl := fleet.New(fleet.Config{})
	fl.SetDefault(m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(serveHandler(deepweb.NewFarm(1, 7), fl, nil))
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- runServer(srv, ln, fl, stop) }()

	site := deepweb.NewSite(deepweb.SiteConfig{ID: 2, Seed: 31})
	prober := &probe.Prober{Plan: probe.NewPlan(12, 2, 909), Labeler: deepweb.Labeler()}
	html := prober.ProbeSite(site).Pages[0].HTML
	url := "http://" + ln.Addr().String() + "/extract"

	// Hammer the endpoint until the listener goes away. Transport errors
	// mean the server stopped accepting — expected after the signal — but
	// any request that was *answered* must have been answered completely.
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				res, err := http.Post(url, "text/html", strings.NewReader(html))
				if err != nil {
					return
				}
				_, err = io.Copy(io.Discard, res.Body)
				if cerr := res.Body.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return
				}
				if res.StatusCode != http.StatusOK {
					t.Errorf("in-flight request answered %s, want 200", res.Status)
					return
				}
				served.Add(1)
			}
		}()
	}
	// Only signal once extraction traffic is actually flowing.
	for served.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("runServer after SIGTERM: %v", err)
	}
	wg.Wait()

	// The drain completed and only then was the registry closed.
	if _, err := fl.Get(context.Background(), fleet.DefaultSite); !errors.Is(err, fleet.ErrClosed) {
		t.Errorf("fleet after shutdown: %v, want ErrClosed", err)
	}
}

// TestNewServerTimeouts: the server thor -serve runs has read-header,
// read and idle timeouts, and no write timeout — a drift rebuild runs in
// the /extract handler after the response is encoded, and a write
// deadline could cut that buffered response off.
func TestNewServerTimeouts(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("timeouts = header %v, read %v, idle %v; want %v, %v, %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout,
			readHeaderTimeout, readTimeout, idleTimeout)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("a server timeout is unset: %+v", srv)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0", srv.WriteTimeout)
	}
}

// TestSaveIndexRefusesGzSnapshot runs the command itself (this test
// binary re-executed as thor) with -save-index x.gz: it must exit
// non-zero before probing, naming the directory alternative.
func TestSaveIndexRefusesGzSnapshot(t *testing.T) {
	if os.Getenv("THOR_TEST_RUN_MAIN") == "1" {
		os.Args = []string{"thor", "-save-index", filepath.Join(os.Getenv("THOR_TEST_DIR"), "x.gz")}
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSaveIndexRefusesGzSnapshot$")
	cmd.Env = append(os.Environ(), "THOR_TEST_RUN_MAIN=1", "THOR_TEST_DIR="+dir)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("thor -save-index x.gz: err %v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "read-only") || !strings.Contains(string(out), "directory") {
		t.Errorf("refusal does not point at a directory: %s", out)
	}
	if strings.Contains(string(out), "probing plan") {
		t.Errorf("refused only after probing: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "x.gz")); !os.IsNotExist(err) {
		t.Errorf("x.gz was written (stat: %v)", err)
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"thor/internal/deepweb"
	"thor/internal/fleet"
	"thor/internal/qaindex"
)

// handlerTree mounts the routes `thor -serve -models <dir> -index <dir>`
// mounts: the simulated deep web at /, the fleet's extraction routes,
// /stats, and the retrieval routes when an index is given. wrapExtract
// and wrapSearch, when not nil, wrap the extraction and search handlers
// in span recorders.
func handlerTree(farm *deepweb.Farm, fl *fleet.Fleet, ix qaindex.Searcher, wrapExtract, wrapSearch func(http.Handler) http.Handler) http.Handler {
	wrap := func(w func(http.Handler) http.Handler, h http.Handler) http.Handler {
		if w == nil {
			return h
		}
		return w(h)
	}
	mux := http.NewServeMux()
	mux.Handle("/", farm.Handler())
	h := wrap(wrapExtract, fl.Handler())
	mux.Handle("/extract", h)
	mux.Handle("/extract/", h)
	mux.Handle("/stats", fl.StatsHandler())
	if ix != nil {
		mux.Handle("/search", wrap(wrapSearch, fl.SearchHandler(ix)))
		mux.Handle("/sites", fl.SitesHandler(ix))
	}
	return mux
}

// server is an http.Server on a loopback listener.
type server struct {
	srv  *http.Server
	base string
	done chan error
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	//thorlint:allow no-bare-go supervised server goroutine: stop waits on done for Serve to return
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClient returns a client holding at most conns connections to the
// server, so the load never exceeds the core count.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		Proxy:               nil, // loopback only, whatever the environment says
	}}
}

// closeClient drops the client's idle connections.
func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// spanHeader carries a request's id and its client-side span to the
// server-side span wrappers of a traced run.
const spanHeader = "X-Perfbench-Span"

func setSpanHeader(r *http.Request, req int64, parent int32) {
	r.Header.Set(spanHeader, strconv.FormatInt(req, 10)+":"+strconv.Itoa(int(parent)))
}

func spanFromHeader(r *http.Request) (req int64, parent int32) {
	a, b, ok := strings.Cut(r.Header.Get(spanHeader), ":")
	if !ok {
		return -1, -1
	}
	req, err1 := strconv.ParseInt(a, 10, 64)
	p, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil {
		return -1, -1
	}
	return req, int32(p)
}

// traceHandler wraps a route's handler in a span named name, parented
// to the client's round-trip span of the same request, while tp points
// to a tracer; otherwise it adds only the pointer load.
func traceHandler(tp *atomic.Pointer[tracer], name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tp.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		req, parent := spanFromHeader(r)
		i := t.begin(name, parent, req)
		h.ServeHTTP(w, r)
		t.finish(i)
	})
}

// checkStatus turns a non-200 response into an error naming the route.
func checkStatus(resp *http.Response, route string) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %s", route, resp.Status)
	}
	return nil
}

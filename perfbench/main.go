// Command perfbench is THOR's end-to-end benchmark. It drives the
// repository's own packages the way an operator and the callers of
// `thor -serve` do — onboarding sites, extracting from fresh answer
// pages over POST /extract/{site}, and searching the QA-object index
// over GET /search — and prints one JSON result line.
//
//	perfbench --workload extract|search --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// dir is the run's scratch directory for model files and index
	// segments; out is where the span file of a traced run goes.
	dir, out string
	// workers is the machine's core count: BuildModel's worker count
	// and the upper bound on client connections.
	workers int
}

// outcome is what a workload reports: the operation tallies and the
// metrics of the requested mode.
type outcome struct {
	attempted, failed int
	metrics           []metric
	// notes are human-readable lines printed above the result.
	notes []string
}

var workloads = map[string]func(config) (outcome, error){
	"extract": runExtract,
	"search":  runSearch,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "extract or search")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 40, "nominal length of the timed phase; sets the amount of work, not a deadline")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for run files and spans")
	flag.Parse()
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload extract|search --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: removing run files:", err)
		}
	}()
	cfg.dir = dir

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d cpus=%d gomaxprocs=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, cfg.workers, runtime.GOMAXPROCS(0), runtime.Version())
	sha0, walk0 := hostRef()
	res, err := wl(cfg)
	sha1, walk1 := hostRef()
	fmt.Printf("hostref: sha256 %.1f / %.1f ms, memory walk %.1f / %.1f ms, before / after the run (diagnostic only)\n", sha0, sha1, walk0, walk1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		return 1
	}
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	if res.metrics, err = complete(list, res.metrics, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	fmt.Print(table(res.metrics))
	line, err := resultJSON(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// resultJSON renders the final result line. Only runs whose correctness
// gates all passed get here, so correct is always true.
func resultJSON(res outcome) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		if _, dup := ms[m.Name]; dup {
			return "", fmt.Errorf("metric %s reported twice", m.Name)
		}
		ms[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.attempted, res.failed, ms})
	return string(b), err
}

// spanFile is where a traced run writes its spans.
func spanFile(cfg config) string {
	return filepath.Join(cfg.out, fmt.Sprintf("spans-%s.tsv", cfg.workload))
}

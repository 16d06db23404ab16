// Command perfbench is the repository's end-to-end benchmark. It starts
// the serving tier (internal/serve) on a 127.0.0.1 listener, configured
// like cmd/pqserve, and drives it over real loopback HTTP from one
// closed-loop client with a keep-alive connection: one request in flight.
//
//	perfbench --workload read-cold --seed 1 --seconds 20 --trace 0
//
// Every input — the 512-document XMark-shaped corpus, the perturbed query
// documents and the edit logs — is generated from --seed; the server only
// ever sees the generated requests. A run sets the server up several
// times (setup_s is their median), measures --seconds of load split
// between those set-ups, checks the answers against a reference forest
// built off the clock with the exhaustive planner, and prints one JSON
// line as the last line of standard output:
//
//	{"correct":true,"attempted":9000,"failed":0,"metrics":{"lookup_ms":{"value":2.4,"unit":"ms"},...}}
//
// With --trace 0 the metrics are the end-to-end ones (see metrics.go);
// with --trace 1 the run instead measures an untraced and a traced window
// of --seconds/2 each, from the same initial state, and reports the
// per-layer breakdown of the traced one plus the tracing overhead. A run
// exits 1 when an answer or count-parity check fails, and 2 when it could
// not run at all. A human-readable report, including the fingerprint of
// every request body sent, goes to standard error.
//
// perfbench/run.py builds this package from the checkout's sources and
// runs it; BENCHMARK.json at the repository root pins the configuration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// The server and load configuration, fixed to cmd/pqserve's defaults
// except where a workload needs otherwise. BENCHMARK.json pins it by
// repeating it in the workload descriptions (see workload.go), which the
// smoke test holds equal to the code. GOMAXPROCS is left at the runtime
// default.
//
// One client keeps the load within a small machine's cores: the server's
// request, its garbage collector and the generator's own work then run
// without queueing for a core, so the figures measure the program, not
// the scheduler of a shared host.
const (
	corpusDocs  = 512         // corpus size, half the result cache
	docNodes    = 300         // approximate nodes per corpus document
	clients     = 1           // closed-loop keep-alive HTTP clients
	cacheSize   = 1024        // result-cache entries
	maxInFlight = 64          // admission: concurrent lookups
	maxQueue    = 256         // admission: waiting lookups; no p95 budget
	flushEvery  = 64          // update-churn: dirty docs per segment flush; journal sync stays off
	trials      = 5           // fresh set-ups per run, each measuring a share of the load
	sliceLen    = time.Second // throughput and latencies are medians over slices this long
	minSlices   = 10          // per operation kind, slices holding at least one sample
)

// config is one benchmark invocation. The sizes are fields so the smoke
// test can shrink them; a run takes them from the constants above.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool

	Docs       int           // corpus size
	DocNodes   int           // approximate nodes per corpus document
	ShadowDocs int           // read-cold's write-only documents
	FlushEvery int           // update-churn: dirty docs per segment flush
	Trials     int           // fresh set-ups per run, each measuring a share of the load
	Slice      time.Duration // length of the slices latencies are averaged over
	MinSlices  int           // per operation kind, slices holding a sample
	WorkDir    string        // scratch space for stores and span dumps
}

func parseFlags(args []string) (config, error) {
	c := config{Docs: corpusDocs, DocNodes: docNodes, ShadowDocs: shadowDocs,
		FlushEvery: flushEvery, Trials: trials, Slice: sliceLen, MinSlices: minSlices}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.Workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&c.Seed, "seed", 1, "input seed")
	fs.Float64Var(&c.Seconds, "seconds", 20, "seconds of measured load")
	trace := fs.Int("trace", 0, "1 reports the per-layer breakdown of a traced run")
	fs.StringVar(&c.WorkDir, "workdir", ".bench_build", "scratch directory for stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[c.Workload]; !ok {
		return c, fmt.Errorf("unknown workload %q (want %s)", c.Workload, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	c.Trace = *trace == 1
	if c.Seconds <= 0 {
		return c, fmt.Errorf("--seconds must be positive")
	}
	return c, nil
}

// output is the result line the benchmark contract asks for.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

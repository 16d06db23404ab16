// Command pqbench regenerates the tables and figures of the paper's
// evaluation section (§9) on synthetic workloads, and runs an instrumented
// micro suite that snapshots the perf trajectory.
//
// Usage:
//
//	pqbench -exp all                 # everything, default scale
//	pqbench -exp fig13-lookup        # Figure 13 (left)
//	pqbench -exp fig13-update        # Figure 13 (right)
//	pqbench -exp fig14-size          # Figure 14 (left)
//	pqbench -exp fig14-update        # Figure 14 (right)
//	pqbench -exp table2              # Table 2
//	pqbench -exp ablate-index        # §8.1 anchor-index ablation
//	pqbench -exp ablate-mix          # edit-mix ablation
//	pqbench -exp ablate-pq           # (p,q) quality ablation
//	pqbench -exp pruning             # candidate-pruning planner sweep
//	pqbench -exp pruning-smoke       # CI guard: pruned must stay within 2x
//	pqbench -exp serve               # serving tier: closed-loop mixed read/write load
//	pqbench -exp serve-smoke         # CI guard: ~1s load run; cache must hit, no drops
//	pqbench -exp segments            # out-of-core lookups: memtable + segments vs in-RAM
//	pqbench -exp segments-smoke      # CI guard: bloom must skip, median lookup within 3x of in-RAM
//	pqbench -exp micro               # instrumented end-to-end micro suite
//
// The -scale flag multiplies the default workload sizes (0.1 for a quick
// smoke run, 4 for a long one); -seed offsets every workload's generator
// seed (0 reproduces the historical workloads). The micro suite sizes its
// document collection with -n and writes a machine-readable report
// (ns/op + metric counters) to the -json path; `make bench-json` uses that
// to produce BENCH_pr2.json. Every figure experiment cross-checks the
// incremental results against full rebuilds and panics on divergence. Any
// failure exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"

	"pqgram/internal/bench"
	"pqgram/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see package comment)")
	scale := flag.Float64("scale", 1, "workload scale factor for the figure experiments")
	n := flag.Int("n", 400, "micro suite workload size (documents)")
	seed := flag.Int64("seed", 0, "workload seed offset (0 = historical defaults)")
	jsonPath := flag.String("json", "", "write the micro suite's machine-readable report here")
	flag.Parse()
	if err := run(*exp, *scale, *n, *seed, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
		os.Exit(1)
	}
}

func run(exp string, scale float64, n int, seed int64, jsonPath string) error {
	bench.SetSeed(seed)
	s := func(v int) int {
		out := int(float64(v) * scale)
		if out < 1 {
			out = 1
		}
		return out
	}
	if exp == "pruning-smoke" {
		// The CI guard: not part of -exp all, non-zero exit when the
		// pruned planner path regresses past 2x of the exhaustive one.
		res, err := bench.PruningSmoke(2)
		if res != nil {
			if perr := res.Print(os.Stdout); perr != nil {
				return perr
			}
		}
		return err
	}
	if exp == "serve-smoke" {
		// The serving-tier CI guard: a ~1s closed-loop load run, failing
		// on a dropped response, a request error, or a repeated-query
		// phase that never hits the result cache. Not part of -exp all.
		res, err := bench.ServeSmoke()
		if res != nil {
			if perr := res.Print(os.Stdout); perr != nil {
				return perr
			}
		}
		return err
	}
	if exp == "segments-smoke" {
		// The storage-engine CI guard: a 256-doc corpus over 4 segments
		// must answer byte-identically to the in-RAM baseline, skip
		// segment probes through the bloom filters, keep fewer grams
		// resident, and keep the median lookup within 3x of the in-RAM
		// baseline (wide enough to absorb CI timing noise, tight enough
		// to catch an order-of-magnitude tier regression).
		// Not part of -exp all.
		res, err := bench.SegmentsSmoke(3)
		if res != nil {
			if perr := res.Print(os.Stdout); perr != nil {
				return perr
			}
		}
		return err
	}
	experiments := []struct {
		name string
		run  func() (*bench.Result, error)
	}{
		{"fig13-lookup", func() (*bench.Result, error) {
			return bench.Fig13Lookup(s(600000), []int{32, 256, 2048}, 0.7), nil
		}},
		{"fig13-update", func() (*bench.Result, error) {
			return bench.Fig13Update([]int{s(50000), s(100000), s(200000), s(400000), s(800000)}, 100), nil
		}},
		{"fig14-size", func() (*bench.Result, error) {
			return bench.Fig14Size([]int{s(25000), s(50000), s(100000), s(200000), s(400000)}), nil
		}},
		{"fig14-update", func() (*bench.Result, error) {
			return bench.Fig14Update(s(400000), []int{1, 4, 16, 64, 256, 1024, 4096}), nil
		}},
		{"table2", func() (*bench.Result, error) {
			return bench.Table2(s(400000), []int{1, 10, 100, 1000}), nil
		}},
		{"ablate-index", func() (*bench.Result, error) {
			return bench.AblationAnchorIndex(s(200000), 1000), nil
		}},
		{"ablate-mix", func() (*bench.Result, error) {
			return bench.AblationOpMix(s(200000), 500), nil
		}},
		{"ablate-pq", func() (*bench.Result, error) {
			return bench.AblationPQ(s(150), 40), nil
		}},
		{"pruning", func() (*bench.Result, error) {
			return firstErr(bench.Pruning(s(256), s(240000), 6, 3, bench.DefaultPruningTaus))
		}},
		{"serve", func() (*bench.Result, error) {
			res, phases, err := bench.Serve(s(256), 8, s(256))
			if err != nil {
				return nil, err
			}
			if jsonPath != "" {
				rep := bench.NewReport(s(256), seed)
				rep.Serve = phases
				if err := rep.WriteFile(jsonPath); err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
			}
			return res, nil
		}},
		{"segments", func() (*bench.Result, error) {
			return firstErr(bench.Segments(s(256), s(64000), 6, 3, 0.5, bench.DefaultSegmentsFlushEvery))
		}},
		{"micro", func() (*bench.Result, error) {
			col := obs.NewCollector()
			res, rep, err := bench.Micro(n, seed, col)
			if err != nil {
				return nil, err
			}
			if jsonPath != "" {
				// The machine-readable report also carries the pruning,
				// serving and segment sweeps, so one artifact records the
				// op timings and the planner speedup curve.
				pres, points, err := bench.Pruning(128, 120000, 6, 3, bench.DefaultPruningTaus)
				if err != nil {
					return nil, err
				}
				rep.Pruning = points
				sres, sphases, err := bench.Serve(256, 8, 256)
				if err != nil {
					return nil, err
				}
				rep.Serve = sphases
				gres, gpoints, err := bench.Segments(256, 64000, 6, 3, 0.5, bench.DefaultSegmentsFlushEvery)
				if err != nil {
					return nil, err
				}
				rep.Segments = gpoints
				if err := rep.WriteFile(jsonPath); err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
				if err := pres.Print(os.Stdout); err != nil {
					return nil, err
				}
				if err := sres.Print(os.Stdout); err != nil {
					return nil, err
				}
				if err := gres.Print(os.Stdout); err != nil {
					return nil, err
				}
			}
			return res, nil
		}},
	}
	known := false
	for _, e := range experiments {
		if exp == "all" || exp == e.name {
			known = true
			res, err := e.run()
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			if err := res.Print(os.Stdout); err != nil {
				return err
			}
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// firstErr adapts three-valued experiment runners (result, data, error) to
// the (result, error) shape of the experiments table.
func firstErr[T any](res *bench.Result, _ T, err error) (*bench.Result, error) {
	return res, err
}

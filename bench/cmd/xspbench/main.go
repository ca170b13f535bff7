// Command xspbench is the repository's benchmark runner; bench/README.md
// is its manual.
//
// Under the benchmark contract (BENCHMARK.json) it is run from the
// repository root as
//
//	go run ./bench/cmd/xspbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and ends its standard output with one JSON line: the end-to-end metrics
// of the real binary with --trace 0, the per-layer metrics with --trace 1.
// Without --workload it runs all four workloads traced and prints every
// metric of both kinds; -repeat 2 does that twice and compares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xsp/bench"
	"xsp/internal/trace"
)

// report is what -out writes: bench/results/BENCH_<pr>.json.
type report struct {
	Machine bench.Machine   `json:"machine"`
	Commit  string          `json:"commit"`
	Seed    int64           `json:"seed"`
	Seconds float64         `json:"seconds"`
	Taken   string          `json:"taken"`
	Runs    []*bench.Result `json:"runs"`
}

func main() {
	workload := flag.String("workload", "", "run only this workload and end with the contract's JSON line (default: all four, traced)")
	seed := flag.Int64("seed", 42, "input seed; tenant t generates from seed+t")
	seconds := flag.Float64("seconds", bench.RunSeconds, "sizes a run: three rounds of (workload's nominal batches/s × seconds / 3) batches per tenant")
	traced := flag.Int("trace", -1, "1 also runs the traced replica and the stage calls and reports the per-layer metrics; default 0 with -workload, 1 without")
	scale := flag.Float64("scale", 1, "multiplies seconds and the repetition size; below 1 a run is one round (smoke runs only)")
	repeat := flag.Int("repeat", 1, "run the whole set this many times; with 2, compare the runs and fail on end-to-end disagreement beyond a bound")
	out := flag.String("out", "", "also write machine, commit and every run as JSON to this file")
	traceDir := flag.String("trace-dir", "", "where traced runs are saved as trace files (default .bench_build/traces)")
	contract := flag.Bool("print-contract", false, "print BENCHMARK.json as this program defines it and exit")
	readTrace := flag.String("self-time", "", "print the per-layer self-time table of a saved traced run and exit")
	flag.Parse()

	if *readTrace != "" {
		if err := selfTimeTable(*readTrace); err != nil {
			fatal(err)
		}
		return
	}

	if *contract {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(bench.BenchmarkContract()); err != nil {
			fatal(err)
		}
		return
	}

	// One OS thread of Go work for the load generator; the server child
	// gets the other cores. The traced phase raises this for its duration.
	runtime.GOMAXPROCS(1)

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := bench.RepoRoot(wd)
	if err != nil {
		fatal(err)
	}
	cfg := bench.Config{
		Root:     root,
		BuildDir: filepath.Join(root, ".bench_build"),
		Seed:     *seed,
		Seconds:  *seconds,
		Scale:    *scale,
		TraceDir: *traceDir,
		Log:      os.Stderr,
	}

	if *workload != "" {
		w, err := bench.WorkloadByName(*workload)
		if err != nil {
			fatal(err)
		}
		cfg.Trace = *traced > 0
		res, err := bench.Run(cfg, w)
		if err != nil {
			fatal(err)
		}
		bench.PrintResult(os.Stdout, res)
		line, err := bench.ContractLine(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
		return
	}

	cfg.Trace = *traced != 0
	sets := make([][]*bench.Result, *repeat)
	rep := report{
		Machine: bench.DescribeMachine(cfg.BuildDir),
		Commit:  commit(root),
		Seed:    *seed,
		Seconds: *seconds,
		Taken:   time.Now().UTC().Format(time.RFC3339),
	}
	failed := 0
	for i := range sets {
		for _, w := range bench.Workloads {
			res, err := bench.Run(cfg, w)
			if err != nil {
				fatal(err)
			}
			bench.PrintResult(os.Stdout, res)
			fmt.Println()
			sets[i] = append(sets[i], res)
			rep.Runs = append(rep.Runs, res)
			failed += res.Failed
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *repeat == 2 {
		bad := bench.Compare(os.Stdout, sets[0], sets[1])
		for _, d := range bad {
			fmt.Printf("DISAGREE %s %s: %.6g vs %.6g, %.3f apart, bound %.2f\n", d.Workload, d.Metric, d.A, d.B, d.Rel, d.Bound)
		}
		if len(bad) > 0 {
			os.Exit(1)
		}
	}
	if failed > 0 {
		fmt.Printf("%d operations or checks failed\n", failed)
		os.Exit(1)
	}
}

// selfTimeTable reads a trace file a traced run saved and prints its
// per-layer self times.
func selfTimeTable(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.DecodeBinary(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	spans := bench.FromTrace(tr)
	self := make(map[string]float64)
	for layer, d := range bench.LayerSelf(spans) {
		self[layer] = d.Seconds()
	}
	wall := 0.0
	for _, s := range spans {
		if s.Depth == bench.DepthRun {
			wall = (s.End - s.Start).Seconds()
		}
	}
	bench.PrintSelfTable(os.Stdout, self, wall)
	return nil
}

// commit names the checkout's commit when it is a git repository.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xspbench:", err)
	os.Exit(1)
}

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"xsp/internal/tablefmt"
)

// ContractLine is the one JSON object the benchmark contract wants as the
// last line of standard output: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
func ContractLine(res *Result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := EndToEnd
	if res.Trace {
		defs = PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		x := res.Values[d.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return "", fmt.Errorf("bench: metric %s is not finite", d.Name)
		}
		metrics[d.Name] = value{Value: x, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	return string(line), err
}

// PrintResult prints every metric the run computed, by name with its
// unit, then the correctness tally and, for a traced run, the per-layer
// self-time table.
func PrintResult(w io.Writer, res *Result) {
	t := tablefmt.New(fmt.Sprintf("%s  seed %d  %.3g s", res.Workload, res.Seed, res.Seconds), "metric", "value", "unit")
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			if x, ok := res.Values[d.Name]; ok {
				t.AddRow(d.Name, fmt.Sprintf("%.6g", x), d.Unit)
			}
		}
	}
	t.Render(w)
	if n := res.Values["cmd.xsp-server.ack_samples"]; n > 0 {
		fmt.Fprintf(w, "ack latency: %d samples; the highest percentile with ten samples beyond it is p%g\n", int(n), SupportedPercentile(int(n)))
	}
	fmt.Fprintf(w, "checks: %d operations attempted, %d failed (failed_frac %.6f)\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	if res.SelfSeconds != nil {
		PrintSelfTable(w, res.SelfSeconds, res.WallSeconds)
		fmt.Fprintf(w, "trace saved to %s\n", res.TraceFile)
	}
}

// PrintSelfTable prints per-layer self time, largest first. The "bench"
// row is the run span's own self time: wall time no recorded call covers.
func PrintSelfTable(w io.Writer, self map[string]float64, wall float64) {
	layers := sortedKeys(self)
	sort.SliceStable(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	t := tablefmt.New(fmt.Sprintf("self time by layer (traced run, wall %.3f s)", wall), "layer", "self s", "of wall")
	for _, l := range layers {
		name := l
		if l == "bench" {
			name = "bench (unaccounted)"
		}
		t.AddRow(name, fmt.Sprintf("%.4f", self[l]), tablefmt.Percent(100*self[l]/wall))
	}
	t.Render(w)
}

// Disagreement is one end-to-end metric whose two runs differ by more
// than its bound.
type Disagreement struct {
	Workload, Metric string
	A, B, Rel, Bound float64
}

// Compare prints, per workload and metric, both runs' values, their
// relative difference and the bound, and returns the end-to-end pairs that
// disagree beyond their bound.
func Compare(w io.Writer, a, b []*Result) []Disagreement {
	var out []Disagreement
	for i := range a {
		t := tablefmt.New(a[i].Workload+": run 1 vs run 2", "metric", "run 1", "run 2", "rel diff", "bound")
		for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
			for _, d := range defs {
				x, okx := a[i].Values[d.Name]
				y, oky := b[i].Values[d.Name]
				if !okx || !oky {
					continue
				}
				rel := 0.0
				if x != y {
					rel = math.Abs(x-y) / math.Max(math.Abs(x), math.Abs(y))
				}
				bound := "-"
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.2f", d.Bound)
					if rel > d.Bound {
						out = append(out, Disagreement{a[i].Workload, d.Name, x, y, rel, d.Bound})
					}
				}
				t.AddRow(d.Name, fmt.Sprintf("%.6g", x), fmt.Sprintf("%.6g", y), fmt.Sprintf("%.3f", rel), bound)
			}
		}
		t.Render(w)
	}
	return out
}

// Contract is BENCHMARK.json.
type Contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []contractLoad `json:"workloads"`
	EndToEnd   []MetricDef    `json:"end_to_end"`
	PerLayer   []MetricDef    `json:"per_layer"` // no bounds, so the key is omitted
}

type contractLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// RunSeconds is the measured window the contract fixes.
const RunSeconds = 18

// BenchmarkContract builds BENCHMARK.json from this package's tables, so
// the file and the code that emits the metrics cannot list different names.
func BenchmarkContract() Contract {
	c := Contract{
		Command:    []string{"go", "run", "./bench/cmd/xspbench"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
		EndToEnd:   EndToEnd,
		PerLayer:   PerLayer,
	}
	for _, w := range Workloads {
		c.Workloads = append(c.Workloads, contractLoad{w.Name, w.Why})
	}
	return c
}

// Machine states where a set of numbers was taken.
type Machine struct {
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu"`
	Kernel    string `json:"kernel"`
	Go        string `json:"go"`
	DataDirFS string `json:"data_dir_fs"`
	Note      string `json:"note"`
}

// DescribeMachine fills Machine for the host, with the file system the
// durable workloads' data directories live on.
func DescribeMachine(dataDir string) Machine {
	m := Machine{NProc: runtime.NumCPU(), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(val)
				break
			}
		}
	}
	if out, err := exec.Command("uname", "-sr").Output(); err == nil {
		m.Kernel = strings.TrimSpace(string(out))
	}
	m.DataDirFS = fsType(dataDir)
	m.Note = "fsync cost is this sandbox's virtual disk's, not a physical device's"
	if m.DataDirFS == "tmpfs" || m.DataDirFS == "overlay" {
		m.Note = "data directory is on " + m.DataDirFS + ": fsync is nearly free here, durable numbers understate a real disk"
	}
	return m
}

// fsType names the file system holding path, from /proc/mounts (longest
// mount point that is a prefix of path).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return fmt.Sprintf("magic-0x%x", st.Type)
	}
	best, bestType := "", fmt.Sprintf("magic-0x%x", st.Type)
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, bestType = mp, f[2]
		}
	}
	return bestType
}

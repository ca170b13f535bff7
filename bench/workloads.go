// Package bench is the repository's benchmark: four workloads driven
// through the real xsp-server binary for the end-to-end metrics, and again
// through an in-process traced replica of the server's wiring for the
// per-layer metrics. bench/README.md defines every workload and metric and
// says which layer metric should move which end-to-end metric where;
// BENCHMARK.json at the repository root is the machine-readable contract.
package bench

import (
	"fmt"
	"time"

	"xsp/internal/vclock"
)

// BatchSpans is the span count of every batch the load generator ships.
const BatchSpans = 1024

// RepSpans is the size of the one synthetic repetition generated per
// tenant before the timed window; a run replays it with shifted ids and
// clock for as long as the window lasts.
const RepSpans = 131072

// Workload is one traffic mix. The stream options are stated once here:
// ServerArgs renders them as xsp-server flags and the replica builds the
// same core.StreamOptions from them, so the two cannot disagree.
type Workload struct {
	Name string
	Why  string

	Durable       bool          // -data-dir; acks wait for the WAL fsync
	ReorderWindow time.Duration // -reorder-window (virtual time)
	Retain        time.Duration // -retain
	CorrRetain    time.Duration // -corr-retain

	Tenants         []string        // one publisher (one connection) each; "" is the default tenant
	Streams         int             // concurrent layer timelines in the synthetic trace
	ReorderSkew     vclock.Duration // arrival shuffle width
	StragglerWindow vclock.Duration // spans withheld to the end of each repetition

	// BatchesPerSec sizes the run: each tenant's publisher sends
	// BatchesPerSec × seconds batches. In a closed loop (the next batch
	// goes out when the previous one is acknowledged) it is the rate the
	// seed commit sustained on the machine of bench/results/BENCH_12.json,
	// so that a run measures for about the seconds asked, while the work —
	// and with it every garbage collection, fold and compaction the server
	// goes through — is the same on every run and every commit. With
	// OpenLoop it is the schedule: one batch is due every 1/BatchesPerSec s
	// whatever the server does, and an ack is timed from its due time.
	BatchesPerSec float64
	OpenLoop      bool

	Reads   bool // a reader queries /api/analysis and /api/correlated beside the writer
	Restart bool // SIGKILL after the window, restart on the same directory, time the recovery
}

// Workloads is the fixed set, in run order.
var Workloads = []Workload{
	{
		Name:          "ram_nested",
		Why:           "RAM fast path: codec, HTTP, raw store, async tap and sweep-line resolver do the work, segio none; a durability change must not move it",
		ReorderWindow: 64, Retain: 10 * time.Microsecond, CorrRetain: 100 * time.Microsecond,
		Tenants: []string{""}, Streams: 1, ReorderSkew: 48,
		BatchesPerSec: 230,
	},
	{
		Name:    "durable_bigtail",
		Why:     "durable ingest with the default 1ms reorder window, so every fold re-snapshots a live tail of ~90k spans: segio and fold/rotate/segment dominate; ends with SIGKILL and recovery",
		Durable: true, ReorderWindow: time.Millisecond, Retain: 10 * time.Microsecond, CorrRetain: 100 * time.Microsecond,
		Tenants: []string{""}, Streams: 1, ReorderSkew: 48,
		BatchesPerSec: 27, Restart: true,
	},
	{
		Name:          "ram_pipelined_2t",
		Why:           "two tenants of pipelined streams skewed past the window: degraded windows, interval-tree fallback, straggler repair and checkpoint reopen dominate, which a fast-path-only change does not touch",
		ReorderWindow: 64, Retain: 10 * time.Microsecond, CorrRetain: 100 * time.Microsecond,
		Tenants: []string{"t0", "t1"}, Streams: 3, ReorderSkew: 256, StragglerWindow: 2048,
		BatchesPerSec: 80,
	},
	{
		Name:    "durable_mixed_rw",
		Why:     "open-loop durable writes at a fixed rate with a small live tail, beside analysis and correlated-trace reads on the same tenant: ack is one WAL fsync and reads contend for the correlator mutex",
		Durable: true, ReorderWindow: 64, Retain: 10 * time.Microsecond, CorrRetain: 100 * time.Microsecond,
		Tenants: []string{""}, Streams: 1, ReorderSkew: 48,
		BatchesPerSec: 16, OpenLoop: true, Reads: true,
	},
}

// WorkloadByName finds a workload of the fixed set.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// ServerArgs is the xsp-server command line for the workload, listening on
// an ephemeral port. dataDir is used only by durable workloads.
func (w Workload) ServerArgs(dataDir string) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-live-analysis",
		"-reorder-window", w.ReorderWindow.String(),
		"-retain", w.Retain.String(),
		"-corr-retain", w.CorrRetain.String(),
	}
	if w.Durable {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

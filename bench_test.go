// Package xsp_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (internal/experiments
// registers them; `go run ./cmd/xsp-bench -list` is the index). Each
// benchmark drives the corresponding experiment generator end to end —
// profiling runs, analysis pipeline, and table rendering — so
// `go test -bench=.` both regenerates the results and measures the
// harness cost. Run `go run ./cmd/xsp-bench <id>` to see an
// experiment's output.
package xsp_test

import (
	"io"
	"testing"

	"xsp/internal/experiments"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig 1: the hierarchical model/layer/GPU-kernel profile.
func BenchmarkFig01_Hierarchy(b *testing.B) { runExperiment(b, "fig01") }

// Fig 2: leveled experimentation overhead (M, M/L, M/L/G).
func BenchmarkFig02_LeveledOverhead(b *testing.B) { runExperiment(b, "fig02") }

// Fig 3: ResNet50 throughput across batch sizes.
func BenchmarkFig03_ThroughputVsBatch(b *testing.B) { runExperiment(b, "fig03") }

// Table I: the 15-analysis catalogue.
func BenchmarkTab01_AnalysisCatalogue(b *testing.B) { runExperiment(b, "tab01") }

// Table II: top-5 most time-consuming layers.
func BenchmarkTab02_TopLayers(b *testing.B) { runExperiment(b, "tab02") }

// Fig 4: layer statistics by type (A5-A7).
func BenchmarkFig04_LayerStats(b *testing.B) { runExperiment(b, "fig04") }

// Fig 5: per-layer latency and allocation (A3-A4).
func BenchmarkFig05_PerLayer(b *testing.B) { runExperiment(b, "fig05") }

// Table III: top-5 most time-consuming GPU kernels (A8).
func BenchmarkTab03_TopKernels(b *testing.B) { runExperiment(b, "tab03") }

// Fig 6: GPU kernel roofline (A9).
func BenchmarkFig06_KernelRoofline(b *testing.B) { runExperiment(b, "fig06") }

// Table IV: kernels aggregated by name (A10).
func BenchmarkTab04_KernelsByName(b *testing.B) { runExperiment(b, "tab04") }

// Table V: kernels aggregated by layer (A11).
func BenchmarkTab05_KernelsByLayer(b *testing.B) { runExperiment(b, "tab05") }

// Fig 7: per-layer GPU metrics (A12).
func BenchmarkFig07_LayerMetrics(b *testing.B) { runExperiment(b, "fig07") }

// Fig 8: GPU vs non-GPU latency per layer (A13).
func BenchmarkFig08_GPUvsNonGPU(b *testing.B) { runExperiment(b, "fig08") }

// Fig 9: layer roofline (A14).
func BenchmarkFig09_LayerRoofline(b *testing.B) { runExperiment(b, "fig09") }

// Table VI: model aggregate across batch sizes (A15).
func BenchmarkTab06_ModelAggregate(b *testing.B) { runExperiment(b, "tab06") }

// Fig 10: model roofline across batch sizes.
func BenchmarkFig10_ModelRoofline(b *testing.B) { runExperiment(b, "fig10") }

// Table VII: the five evaluation systems.
func BenchmarkTab07_Systems(b *testing.B) { runExperiment(b, "tab07") }

// Table VIII: all 55 TensorFlow models.
func BenchmarkTab08_TFModels(b *testing.B) { runExperiment(b, "tab08") }

// Table IX: in-depth characterization of the 37 IC models.
func BenchmarkTab09_ICModels(b *testing.B) { runExperiment(b, "tab09") }

// Table X: the 10 MXNet models vs TensorFlow.
func BenchmarkTab10_MXNetModels(b *testing.B) { runExperiment(b, "tab10") }

// Fig 11: ResNet50 across the five systems.
func BenchmarkFig11_Systems(b *testing.B) { runExperiment(b, "fig11") }

// Fig 12: roofline of the 37 IC models.
func BenchmarkFig12_ICRoofline(b *testing.B) { runExperiment(b, "fig12") }

// Ablations of the design choices (the abl* experiments in internal/experiments).

// cuDNN algorithm heuristics vs forced algorithms.
func BenchmarkAbl01_ConvAlgorithms(b *testing.B) { runExperiment(b, "abl01") }

// Profiling overhead by level set.
func BenchmarkAbl02_ProfilingOverhead(b *testing.B) { runExperiment(b, "abl02") }

// Serialized vs pipelined layer profiling.
func BenchmarkAbl03_SerializedVsPipelined(b *testing.B) { runExperiment(b, "abl03") }

// Element-wise library swap under one framework.
func BenchmarkAbl04_ElementwiseLibrary(b *testing.B) { runExperiment(b, "abl04") }

// Interleaving two model instances on separate streams.
func BenchmarkAbl05_StreamInterleaving(b *testing.B) { runExperiment(b, "abl05") }

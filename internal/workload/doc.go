// Package workload drives models and synthetic load through the profiling
// pipeline.
//
// The batch-size sweep ([Sweep]) measures the A1 model information:
// throughput and latency per batch size. [OptimalBatch] picks the optimal
// batch size from it (the paper's Section III-D1 rule — keep doubling while
// throughput improves by more than 5%), and experiment fig03 renders both.
//
// The generators exercise the system at scales the simulated models never
// reach:
//
//   - [SyntheticTrace] builds a deterministic model/layer/kernel trace of
//     up to millions of spans, optionally multi-stream (overlapping
//     layers, defeating the sweep-line fast path), launch-free (the
//     activity-API capture mode), or prelinked (already correlated);
//   - [StreamingArrivals] delivers a synthetic trace in arrival order, in
//     batches, with a bounded amount of reordering
//     (StreamingSpec.ReorderSkew) — the feed the core.StreamCorrelator
//     property tests and BenchmarkStreamCorrelate consume;
//   - [PublishOverdriven] drives many publishers flat out at once, the load
//     core's admission and overload soak tests shed against.
package workload

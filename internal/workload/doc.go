// Package workload drives models and synthetic load through the profiling
// pipeline.
//
// The batch-size sweep ([Sweep]) computes the A1 model information table:
// throughput and latency per batch size and the optimal batch size (the
// paper's Section III-D1 rule — keep doubling while throughput improves by
// more than 5%).
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
//   - [PublishOverdriven] drives many publishers flat out at once, the load the
//     admission and overload soaks shed against.
package workload

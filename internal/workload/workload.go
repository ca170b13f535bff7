package workload

import (
	"fmt"
	"time"

	"xsp/internal/core"
	"xsp/internal/framework"
)

// GraphBuilder produces a model graph for a batch size (modelzoo.Model's
// Graph method satisfies it).
type GraphBuilder func(batch int) (*framework.Graph, error)

// Point is one batch size's measurement at the model level.
type Point struct {
	Batch      int
	Latency    time.Duration // model prediction latency
	Throughput float64       // inputs/second
}

// DefaultBatches is the paper's sweep (Fig 3 uses 1-512, Table VI 1-256).
var DefaultBatches = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Sweep measures the model at the model level (no profiling overhead)
// across batch sizes. Batch sizes the model rejects (beyond its MaxBatch)
// are skipped.
func Sweep(s *core.Session, build GraphBuilder, batches []int) ([]Point, error) {
	if len(batches) == 0 {
		batches = DefaultBatches
	}
	var out []Point
	for _, bs := range batches {
		g, err := build(bs)
		if err != nil {
			continue // model caps its batch size
		}
		res, err := s.Profile(g, core.Options{Levels: core.M})
		if err != nil {
			return nil, fmt.Errorf("workload: batch %d: %w", bs, err)
		}
		lat := res.ModelSpan.Duration()
		out = append(out, Point{
			Batch:      bs,
			Latency:    lat,
			Throughput: float64(bs) / lat.Seconds(),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: no batch size succeeded")
	}
	return out, nil
}

// OptimalBatch applies the paper's default rule: evaluate across batch
// sizes and select the first batch size where doubling it does not
// increase throughput by more than 5%. When throughput keeps improving
// through the whole sweep, the largest measured batch wins (the paper's
// ResNet50 case: optimal 256).
func OptimalBatch(points []Point) Point {
	if len(points) == 0 {
		return Point{}
	}
	byBatch := make(map[int]Point, len(points))
	for _, p := range points {
		byBatch[p.Batch] = p
	}
	for _, p := range points {
		next, ok := byBatch[p.Batch*2]
		if !ok {
			continue
		}
		if next.Throughput <= p.Throughput*1.05 {
			return p
		}
	}
	return points[len(points)-1]
}

// MaxThroughput returns the sweep's peak throughput point.
func MaxThroughput(points []Point) Point {
	best := points[0]
	for _, p := range points[1:] {
		if p.Throughput > best.Throughput {
			best = p
		}
	}
	return best
}

// OnlineLatency returns the batch-1 latency (the paper's online latency),
// or 0 when batch 1 was not measured.
func OnlineLatency(points []Point) time.Duration {
	for _, p := range points {
		if p.Batch == 1 {
			return p.Latency
		}
	}
	return 0
}

package core

import (
	"time"

	"xsp/internal/framework"
	"xsp/internal/trace"
)

// Leveled is the result of leveled experimentation (Section III-C): the
// model profiled once per level set, so every level's latencies come from
// the run where they are accurate, and the overhead each additional level
// introduces is quantified by subtraction.
type Leveled struct {
	// MTrace, MLTrace, MLGTrace are the runs at increasing levels.
	MTrace, MLTrace, MLGTrace *trace.Trace

	// ModelLatency is the accurate model-prediction latency (M run).
	ModelLatency time.Duration

	// LayerOverhead is the overhead layer-level profiling adds to the
	// model prediction (M/L prediction latency minus M's). For
	// MLPerf_ResNet50_v1.5 at batch 256 on Tesla_V100 the paper
	// measures 157ms.
	LayerOverhead time.Duration

	// GPUOverhead is the additional overhead GPU kernel-level profiling
	// adds (M/L/G prediction latency minus M/L's).
	GPUOverhead time.Duration
}

// LeveledProfile performs the three-run leveled experiment on one graph.
// gpuMetrics optionally enables CUPTI hardware counters in the M/L/G run.
func (s *Session) LeveledProfile(g *framework.Graph, gpuMetrics []string) (*Leveled, error) {
	m, err := s.Profile(g, Options{Levels: M})
	if err != nil {
		return nil, err
	}
	ml, err := s.Profile(g, Options{Levels: ML})
	if err != nil {
		return nil, err
	}
	mlg, err := s.Profile(g, Options{Levels: MLG, GPUMetrics: gpuMetrics})
	if err != nil {
		return nil, err
	}

	lat := func(t *trace.Trace) time.Duration {
		if sp := t.Find("model_prediction"); sp != nil {
			return sp.Duration()
		}
		return 0
	}
	out := &Leveled{
		MTrace:       m.Trace,
		MLTrace:      ml.Trace,
		MLGTrace:     mlg.Trace,
		ModelLatency: lat(m.Trace),
	}
	out.LayerOverhead = lat(ml.Trace) - out.ModelLatency
	out.GPUOverhead = lat(mlg.Trace) - lat(ml.Trace)
	return out, nil
}

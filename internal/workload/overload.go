package workload

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// OverloadSpec shapes an overdriven ingestion run: many publishers cutting
// span batches flat-out — no pacing of their own — against whatever
// delivery path the caller supplies, the load pattern admission control
// and the async tap exist for. The generator backs the overload soak.
type OverloadSpec struct {
	// Publishers is the number of concurrent publishers, one goroutine
	// each. Defaults to 10 — the "10x overdriven" shape.
	Publishers int

	// SpansEach is the number of spans each publisher generates. Defaults
	// to 1000.
	SpansEach int

	// BatchSpans is the batch size publishers cut, in spans. A kernel
	// publisher's launch/exec pair never splits across batches. Defaults
	// to 64.
	BatchSpans int

	// Seed drives each publisher's deterministic pseudo-random durations
	// (publisher i uses Seed+i), so runs are reproducible per publisher even
	// though the interleaving across publishers is not.
	Seed int64
}

func (s OverloadSpec) withDefaults() OverloadSpec {
	if s.Publishers <= 0 {
		s.Publishers = 10
	}
	if s.SpansEach <= 0 {
		s.SpansEach = 1000
	}
	if s.BatchSpans <= 0 {
		s.BatchSpans = 64
	}
	return s
}

// PublishOverdriven drives spec.Publishers publishers concurrently, each
// cutting batches of spec.BatchSpans spans and handing them to ship —
// called from every publisher's goroutine at once, with the publisher
// index; delivery, retry, and pacing are the caller's (that is what the
// soak measures). It returns the total spans generated, after every
// publisher has drained.
//
// Timestamps come from one virtual clock shared by all publishers,
// advancing with generation order, so the merged stream is nearly sorted —
// the arrival shape one tracing server sees from concurrent profilers —
// and any delivery stall (a publisher stuck in retry backoff while the
// others run on) surfaces downstream as genuine cross-publisher reorder.
// Publishers profile the paper's levels round-robin; kernel publishers
// emit launch/exec pairs tied by a correlation id, with each pair adjacent
// in one batch, so a pair's resolution never depends on a later batch
// surviving delivery. Span IDs come from the process-wide counter and are
// unique across publishers.
func PublishOverdriven(spec OverloadSpec, ship func(p int, batch []*trace.Span)) int {
	spec = spec.withDefaults()
	var clock atomic.Int64 // shared virtual time: every event advances it
	var wg sync.WaitGroup
	for p := 0; p < spec.Publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			overdriveOne(&clock, spec, p, ship)
		}(p)
	}
	wg.Wait()
	return spec.Publishers * spec.SpansEach
}

// publisherLevels is the level each publisher profiles at, round-robin:
// the paper's stack has one tracer per level, so a run with more
// publishers than levels models several processes' profilers feeding one
// tracing server.
var publisherLevels = []trace.Level{
	trace.LevelModel, trace.LevelLayer, trace.LevelLibrary, trace.LevelKernel,
}

// overdriveOne is one publisher's flat-out stream.
func overdriveOne(clock *atomic.Int64, spec OverloadSpec, p int, ship func(int, []*trace.Span)) {
	level := publisherLevels[p%len(publisherLevels)]
	rng := rand.New(rand.NewSource(spec.Seed + int64(p)))
	tick := func(n int64) vclock.Time { return vclock.Time(clock.Add(n)) }

	batch := make([]*trace.Span, 0, spec.BatchSpans)
	cut := func() {
		if len(batch) > 0 {
			ship(p, batch)
			batch = make([]*trace.Span, 0, spec.BatchSpans)
		}
	}

	emitted := 0
	for emitted < spec.SpansEach {
		if level == trace.LevelKernel && emitted+2 <= spec.SpansEach {
			if len(batch)+2 > spec.BatchSpans {
				cut() // the pair stays whole within one batch
			}
			corr := trace.NewSpanID()
			launch := &trace.Span{
				ID: trace.NewSpanID(), Level: level, Kind: trace.KindLaunch,
				Name: "cudaLaunchKernel", Source: "overdriven",
				Begin: tick(1), End: tick(1), CorrelationID: corr,
			}
			exec := &trace.Span{
				ID: trace.NewSpanID(), Level: level, Kind: trace.KindExec,
				Name: "overdriven_kernel", Source: "overdriven",
				Begin: tick(1), End: tick(int64(1 + rng.Intn(4))), CorrelationID: corr,
			}
			batch = append(batch, launch, exec)
			emitted += 2
			continue
		}
		s := &trace.Span{
			ID: trace.NewSpanID(), Level: level, Name: "overdriven_span", Source: "overdriven",
			Begin: tick(1), End: tick(int64(1 + rng.Intn(8))),
		}
		batch = append(batch, s)
		emitted++
		if len(batch) >= spec.BatchSpans {
			cut()
		}
	}
	cut()
}

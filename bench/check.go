package bench

import (
	"encoding/json"
	"math"
	"net/http"

	"xsp/internal/core"
	"xsp/internal/trace"
)

// checkLoad folds the load generator's failures into the result and
// checks, per tenant, what the server reported once the window's flush
// returned: it observed exactly the spans that tenant sent (so no batch
// was lost, duplicated or landed on a neighbour), and its memcpy analysis
// adds up to the integer byte totals of the generated copies.
func checkLoad(res *Result, w Workload, load *LoadResult) {
	res.Attempted += load.Attempted
	res.Failed += load.Failed
	for _, e := range load.Errors {
		if len(res.Errors) < 16 {
			res.Errors = append(res.Errors, w.Name+": "+e)
		}
	}
	for _, t := range load.Tenants {
		res.check(t.AnalysisSpans == int64(t.Spans),
			"tenant %q: server observed %d spans, %d were sent", t.Tenant, t.AnalysisSpans, t.Spans)
		got := map[string]float64{}
		for _, row := range t.Memcpy.Rows {
			got[row.Direction] = row.MB
		}
		for dir, name := range []string{"HtoD", "DtoH"} {
			want := float64(t.MemcpyBytes[dir]) / 1e6
			// The engine sums bytes/1e6 per span in arrival order; only
			// float rounding may separate it from the integer total.
			res.check(math.Abs(got[name]-want) <= 1e-9*math.Max(want, 1),
				"tenant %q: memcpy %s total %.6f MB, generated %.6f MB", t.Tenant, name, got[name], want)
		}
	}
}

// checkCorrelated fetches the finalized correlated trace and compares
// every parent with core.Correlate on the same spans.
func checkCorrelated(res *Result, client *http.Client, baseURL string, in *Input, batches int) {
	got, err := fetchCorrelated(client, baseURL, true, 0)
	if err != nil {
		res.check(false, "final GET /api/correlated: %v", err)
		return
	}
	want := &trace.Trace{Spans: in.Materialize(batches)}
	core.Correlate(want)
	res.check(len(got.Spans) == len(want.Spans), "correlated trace has %d spans, %d were sent", len(got.Spans), len(want.Spans))
	parents := make(map[uint64]uint64, len(want.Spans))
	for _, s := range want.Spans {
		parents[s.ID] = s.ParentID
	}
	wrong, unknown := 0, 0
	for _, s := range got.Spans {
		p, ok := parents[s.ID]
		switch {
		case !ok:
			unknown++
		case p != s.ParentID:
			wrong++
		}
	}
	res.check(unknown == 0, "correlated trace holds %d spans that were never sent", unknown)
	res.check(wrong == 0, "%d of %d parents differ from core.Correlate on the same spans", wrong, len(got.Spans))
}

// checkDurability reads /api/durability on a restarted server: no tenant
// may report a latched error or a quarantined file.
func checkDurability(res *Result, client *http.Client, baseURL string) {
	_, body, err := get(client, baseURL+"/api/durability", "", 0)
	if err != nil {
		res.check(false, "GET /api/durability after restart: %v", err)
		return
	}
	var dur durabilityView
	if err := json.Unmarshal(body, &dur); err != nil {
		res.check(false, "/api/durability after restart: %v", err)
		return
	}
	for key, t := range dur.Tenants {
		res.check(t.Err == "", "tenant %q reports a durability error after restart: %s", key, t.Err)
		quarantined := 0
		if t.Recovery != nil {
			quarantined = len(t.Recovery.Quarantined)
		}
		res.check(quarantined == 0, "tenant %q quarantined %d files on recovery", key, quarantined)
	}
}

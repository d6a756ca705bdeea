package main

import (
	"slices"
	"strings"
	"time"
)

// metricDef is one reported metric: its unit, which direction is
// better, the layer it belongs to, the workloads that measure it, and
// the end-to-end metric and workload it should move.
type metricDef struct {
	Name      string   `json:"name"`
	Unit      string   `json:"unit"`
	Better    string   `json:"better"`
	Layer     string   `json:"layer,omitempty"`
	Workloads []string `json:"workloads"`
	Moves     string   `json:"moves,omitempty"`
}

var allWorkloads = []string{"sweep", "jobs", "fleet"}

// endToEndMetrics are measured untraced on every workload. An operation
// is one job, submit to the last result byte.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Workloads: allWorkloads},
	{Name: "op_p50_s", Unit: "s", Better: "lower", Workloads: allWorkloads},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Workloads: allWorkloads},
}

// latticeEngines are the engines of the paper's comparison, measured
// by the traced sweep run on the committed 512² state.
var latticeEngines = []string{"rsm", "vssm", "frm", "lpndca", "pndca", "typepart", "ddrsm"}

// perLayerMetrics are measured by the traced run on the workloads each
// lists; a traced run that leaves one of them unmeasured fails. On the
// other workloads a metric reads 0, which means "not applicable".
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better, layer, moves string, workloads ...string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Layer: layer, Workloads: workloads, Moves: moves})
	}
	for _, e := range latticeEngines {
		unit := "trial"
		if e == "vssm" || e == "frm" {
			unit = "event"
		}
		pre := "engine." + e + "."
		moves := "none: no kept workload's requests use this engine"
		if e == "rsm" || e == "lpndca" {
			moves = "op_p50_s, ops_per_s on sweep; op_p50_s on fleet"
		}
		if e == "rsm" {
			moves += "; op_p50_s, ops_per_s on jobs"
		}
		add(pre+"simt_per_s", "t/s", "higher", "engine", moves, "sweep")
		add(pre+"ns_per_"+unit, "ns", "lower", "engine", moves, "sweep")
		add(pre+"allocs_per_"+unit, "count", "lower", "engine", moves, "sweep")
		if unit == "trial" {
			add(pre+"success_frac", "1", "higher", "engine", "none: a count of the algorithm's useful work", "sweep")
		}
		if e == "ddrsm" {
			add(pre+"deferred_frac", "1", "lower", "engine", moves, "sweep")
		}
	}
	for _, e := range parallelEngines {
		pre := "engine." + e + "."
		moves := "none: no change on sweep, jobs, fleet"
		add(pre+"serial_simt_per_s", "t/s", "higher", "engine", moves, "sweep")
		add(pre+"speedup", "ratio", "higher", "engine", moves, "sweep")
		add(pre+"step_ms_p50", "ms", "lower", "engine", moves, "sweep")
		add(pre+"step_ms_p90", "ms", "lower", "engine", moves, "sweep")
		add(pre+"cpu_per_wall", "ratio", "lower", "engine", moves, "sweep")
	}
	svc := []string{"sweep", "jobs", "fleet"}
	add("session.build_us", "us", "lower", "session", "op_p50_s on sweep and fleet", svc...)
	add("session.reset_us", "us", "lower", "session", "op_p50_s on sweep and fleet", svc...)
	add("ensemble.run_s", "s", "lower", "ensemble", "op_p50_s on sweep and fleet", svc...)
	add("ensemble.busy_frac", "1", "higher", "ensemble", "op_p50_s on sweep and fleet", svc...)
	add("ensemble.replica_s_p50", "s", "lower", "ensemble", "op_p50_s on sweep and fleet", svc...)
	add("ensemble.replica_s_p90", "s", "lower", "ensemble", "op_p50_s on sweep and fleet", svc...)
	jobMoves := "op_p50_s, ops_per_s on jobs"
	// A fleet run is about 25 jobs: too few for a p90.
	for _, m := range []string{"http.submit_ms", "http.result_ms", "job.queue_ms"} {
		add(m+"_p50", "ms", "lower", "job", jobMoves, svc...)
		add(m+"_p90", "ms", "lower", "job", jobMoves, "sweep", "jobs")
	}
	add("job.overhead_ms_p50", "ms", "lower", "job", jobMoves, svc...)
	add("job.latency_s_p90", "s", "lower", "job", jobMoves, "jobs")
	add("job.cache_hit_frac", "1", "higher", "job", jobMoves, "jobs")
	add("job.cached_ms_p50", "ms", "lower", "job", jobMoves, "jobs")
	storeMoves := "op_p50_s, ops_per_s on jobs (store in memory); op_p50_s on fleet (store on disk); no change on sweep"
	for _, m := range storeMethods {
		// Only fleet mode writes shards, and its put_job, put_result
		// and get_result calls are too few for a p90.
		wls, p90 := []string{"jobs", "fleet"}, []string{"jobs"}
		if strings.HasPrefix(m, "put_shard") {
			wls, p90 = []string{"fleet"}, []string{"fleet"}
		}
		add("store."+m+".count", "1/job", "lower", "store", storeMoves, wls...)
		add("store."+m+".ms_p50", "ms", "lower", "store", storeMoves, wls...)
		add("store."+m+".ms_p90", "ms", "lower", "store", storeMoves, p90...)
	}
	add("store.bytes_written", "bytes/job", "lower", "store", storeMoves, "jobs", "fleet")
	fleetMoves := "op_p50_s on fleet only"
	add("fleet.lease.count", "1/job", "lower", "fleet", fleetMoves, "fleet")
	add("fleet.lease.empty_frac", "1", "lower", "fleet", fleetMoves, "fleet")
	add("fleet.lease_wait_ms_p50", "ms", "lower", "fleet", fleetMoves, "fleet")
	add("fleet.result_ms_p50", "ms", "lower", "fleet", fleetMoves, "fleet")
	add("fleet.result_bytes", "bytes", "lower", "fleet", fleetMoves, "fleet")
	add("fleet.heartbeat.count", "1/job", "lower", "fleet", fleetMoves, "fleet")
	add("fleet.requeues", "count", "lower", "fleet", fleetMoves, "fleet")
	for _, m := range endToEndMetrics {
		add("trace_overhead."+m.Name, m.Unit, m.Better, "trace", "traced minus untraced "+m.Name, allWorkloads...)
	}
	return out
}

// storeMethods are the store calls the per-layer metrics cover.
var storeMethods = []string{"put_job", "put_result", "get_result", "put_shard", "put_shard_result"}

// unitOf looks up a metric's unit.
func unitOf(name string) string {
	for _, ms := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, m := range ms {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// resetRecorders discards what the traced surfd recorded during set-up.
func (s *surfd) resetRecorders() {
	if s.rec != nil {
		s.rec.reset()
	}
	if s.st != nil {
		s.st.reset()
	}
}

// newRecorders returns a surfd that serves nothing and only gathers,
// through absorb, what a traced run's successive surfds recorded. Its
// recorders are nil when tr is.
func newRecorders(tr *Tracer) *surfd {
	if tr == nil {
		return &surfd{}
	}
	return &surfd{rec: newHTTPRecorder(tr), st: newTimedStore(nil)}
}

// absorb adds the job-handler and store timings s recorded to those of
// acc. Fleet counters are not merged: the fleet workload never
// replaces its surfd.
func (acc *surfd) absorb(s *surfd) {
	if acc.rec == nil {
		return
	}
	s.rec.mu.Lock()
	acc.rec.submitMs = append(acc.rec.submitMs, s.rec.submitMs...)
	acc.rec.resultMs = append(acc.rec.resultMs, s.rec.resultMs...)
	s.rec.mu.Unlock()
	if s.st == nil {
		return
	}
	ms, n := s.st.snapshot()
	for k, v := range ms {
		acc.st.ms[k] = append(acc.st.ms[k], v...)
	}
	acc.st.bytes += n
}

// layerMetrics fills the job, store and fleet metrics of a traced
// service run from its jobs and the surfd's recorders. It needs
// ensemble.run_s, for the job overhead.
func (s *surfd) layerMetrics(rep *report, outs []*jobOutcome) {
	L := rep.layers
	jobs := float64(max(len(outs), 1))

	var queue, latency []float64
	for _, o := range outs {
		latency = append(latency, o.latency)
		if o.hasQueue {
			queue = append(queue, o.queueMs)
		}
	}
	rep.setPct("job.queue_ms_p50", queue, 0.5)
	rep.setPct("job.queue_ms_p90", queue, 0.9)
	if p50, ok := percentile(latency, 0.5); ok {
		L["job.overhead_ms_p50"] = (p50 - L["ensemble.run_s"]) * 1e3
	}

	h := s.rec
	h.mu.Lock()
	rep.setPct("http.submit_ms_p50", h.submitMs, 0.5)
	rep.setPct("http.submit_ms_p90", h.submitMs, 0.9)
	rep.setPct("http.result_ms_p50", h.resultMs, 0.5)
	rep.setPct("http.result_ms_p90", h.resultMs, 0.9)
	if s.coord != nil {
		L["fleet.lease.count"] = float64(h.leases-h.emptyLeases) / jobs
		if h.leases > 0 {
			L["fleet.lease.empty_frac"] = float64(h.emptyLeases) / float64(h.leases)
		}
		var wait []float64
		for _, o := range outs {
			if g, ok := h.firstGrant[o.id]; ok {
				wait = append(wait, float64(g.Sub(o.accepted))/float64(time.Millisecond))
			}
		}
		rep.setPct("fleet.lease_wait_ms_p50", wait, 0.5)
		rep.setPct("fleet.result_ms_p50", h.uploadMs, 0.5)
		if n := len(h.uploadMs); n > 0 {
			L["fleet.result_bytes"] = float64(h.uploadBytes) / float64(n)
		}
		L["fleet.heartbeat.count"] = float64(h.heartbeats) / jobs
		L["fleet.requeues"] = float64(s.coord.Counters().Requeues)
	}
	h.mu.Unlock()

	if s.st != nil {
		ms, bytes := s.st.snapshot()
		for _, m := range storeMethods {
			L["store."+m+".count"] = float64(len(ms[m])) / jobs
			rep.setPct("store."+m+".ms_p50", ms[m], 0.5)
			rep.setPct("store."+m+".ms_p90", ms[m], 0.9)
		}
		L["store.bytes_written"] = float64(bytes) / jobs
	}
}

// unmeasured lists the per-layer metrics mapped to workload that r
// lacks, such as a percentile with too few samples beyond it.
func unmeasured(r *report, workload string) []string {
	var out []string
	for _, m := range perLayerMetrics {
		if _, ok := r.layers[m.Name]; !ok && slices.Contains(m.Workloads, workload) {
			out = append(out, m.Name)
		}
	}
	return out
}

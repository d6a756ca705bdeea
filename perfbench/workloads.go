package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"parsurf"
	"parsurf/internal/job"
	"parsurf/internal/store"
)

// The sweep (and fleet) request: {rsm, lpndca} × kCO on 64² from a
// random start. With kO2 = 0.275 the CO share of adsorption attempts is
// kCO/(kCO+0.55): 0.31 and 0.56 lie past the two poisoning edges,
// 0.45 and 0.50 inside the reactive window.
var (
	sweepEngines = []string{"rsm", "lpndca"}
	sweepKCO     = []float64{0.25, 0.45, 0.55, 0.70}
	sweepInit    = []float64{0.8, 0.1, 0.1}
)

const (
	sweepSide     = 64
	sweepReplicas = 8
	sweepUntil    = 0.4
	sweepEvery    = 0.02

	// The jobs request: one small rsm ensemble, sized so engine time
	// (ensemble.run_s) is about the service time of a job, which a cache
	// hit shows (job.cached_ms_p50). On 2 vCPU, 2 replicas to 0.1 gave
	// 0.47 ms against 0.43 ms; to 0.25, 0.93 ms against 0.48 ms.
	jobsSide     = 32
	jobsReplicas = 2
	jobsUntil    = 0.1
	jobsEvery    = 0.05
	jobsClients  = 2
	jobsRepeat   = 0.25 // share of submissions that repeat a completed request

	// Requests checked against a direct RunSweep computed before the window:
	// refCount of the first refPool sweep requests, and jobsRefCount
	// of each jobs client's first jobsRefPool fresh requests.
	refCount     = 3
	refPool      = 8
	jobsRefCount = 8
	jobsRefPool  = 16
)

// mix derives a seed from a and b (splitmix64 finalizer).
func mix(a, b uint64) uint64 {
	z := a + 0x9E3779B97F4A7C15*(b+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// request is one job submission: the decoded form for direct runs and
// the JSON body the client posts.
type request struct {
	sub  job.SubmitRequest
	body []byte
}

func newRequest(specs []*parsurf.SessionSpec, replicas, workers int, until, every float64) (*request, error) {
	sub := job.SubmitRequest{Specs: specs, Replicas: replicas, Workers: workers, Until: until, Every: every}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	return &request{sub: sub, body: body}, nil
}

// sweepRequest is the i-th request of the sweep and fleet workloads.
func sweepRequest(seed uint64, i, nproc int) (*request, error) {
	var specs []*parsurf.SessionSpec
	for _, e := range sweepEngines {
		for _, k := range sweepKCO {
			spec, err := parsurf.NewSpec(
				parsurf.WithModelPreset("zgb", map[string]float64{"kCO": k}),
				parsurf.WithLattice(sweepSide, sweepSide),
				parsurf.WithEngine(e),
				parsurf.WithSeed(mix(mix(seed, uint64(i)), uint64(len(specs)))),
				parsurf.WithInit(parsurf.RandomInit(sweepInit...)),
			)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	return newRequest(specs, sweepReplicas, nproc, sweepUntil, sweepEvery)
}

// jobsRequest is the f-th fresh request of jobs client c.
func jobsRequest(seed uint64, c, f int) (*request, error) {
	spec, err := parsurf.NewSpec(
		parsurf.WithModelPreset("zgb", nil),
		parsurf.WithLattice(jobsSide, jobsSide),
		parsurf.WithEngine("rsm"),
		parsurf.WithSeed(mix(mix(seed, uint64(c)+1<<32), uint64(f))),
		parsurf.WithInit(parsurf.RandomInit(sweepInit...)),
	)
	if err != nil {
		return nil, err
	}
	return newRequest([]*parsurf.SessionSpec{spec}, jobsReplicas, 1, jobsUntil, jobsEvery)
}

// sampleIndices draws k distinct indices from [0, n), seeded.
func sampleIndices(seed, salt uint64, k, n int) []int {
	return rand.New(rand.NewPCG(seed, salt)).Perm(n)[:k]
}

// reference is a request's result computed by a direct RunSweep.
type reference struct {
	variants []byte  // JSON of the result variants, as surfd serves them
	runS     float64 // RunSweep wall time
	workers  int
	replicaS []float64 // per-replica spans from ObserveReplicas (observe only)
}

// directSweep runs r through parsurf.RunSweep; with observe it also
// records each replica's span through ObserveReplicas.
func directSweep(r *request, observe bool) (*reference, error) {
	sub := r.sub
	n := len(sub.Specs) * sub.Replicas
	first := make([]time.Time, n)
	last := make([]time.Time, n)
	var opts []parsurf.EnsembleOption
	if observe {
		// Calls for one replica come from one goroutine; each replica
		// writes only its own elements.
		opts = append(opts, parsurf.ObserveReplicas(func(v, i int, _ float64, _ *parsurf.Session) {
			k := v*sub.Replicas + i
			now := time.Now()
			if first[k].IsZero() {
				first[k] = now
			}
			last[k] = now
		}))
	}
	t0 := time.Now()
	ens, err := parsurf.RunSweep(context.Background(), sub.Specs, sub.Replicas, sub.Workers, sub.Until, sub.Every, opts...)
	if err != nil {
		return nil, err
	}
	ref := &reference{runS: time.Since(t0).Seconds(), workers: sub.Workers}
	variants := make([]store.Variant, len(ens))
	for v, e := range ens {
		vr := store.Variant{Species: sub.Specs[v].SpeciesNames(), T: e.Grid.Times()}
		for sp := range e.Mean {
			vr.Mean = append(vr.Mean, e.Mean[sp].X)
			vr.Std = append(vr.Std, e.Std[sp].X)
		}
		variants[v] = vr
	}
	if ref.variants, err = json.Marshal(variants); err != nil {
		return nil, err
	}
	if observe {
		for k := range first {
			ref.replicaS = append(ref.replicaS, last[k].Sub(first[k]).Seconds())
		}
	}
	return ref, nil
}

// Direct RunSweeps behind the ensemble metrics: at least this many
// runs and replica spans, so that replica_s_p90 is always measured.
const (
	ensembleMinRuns  = 5
	ensembleMinSpans = 120
)

// ensembleTimings fills the ensemble metrics of a traced run from
// direct, observed RunSweeps of the workload's requests 0, 1, ...
func ensembleTimings(rep *report, req func(i int) (*request, error)) error {
	var runs, busy, replicas []float64
	for i := 0; i < ensembleMinRuns || len(replicas) < ensembleMinSpans; i++ {
		r, err := req(i)
		if err != nil {
			return err
		}
		ref, err := directSweep(r, true)
		if err != nil {
			return err
		}
		runs = append(runs, ref.runS)
		replicas = append(replicas, ref.replicaS...)
		busy = append(busy, sum(ref.replicaS)/(float64(ref.workers)*ref.runS))
	}
	// A few whole runs: plain medians.
	rep.layers["ensemble.run_s"] = median(runs)
	rep.layers["ensemble.busy_frac"] = median(busy)
	rep.setPct("ensemble.replica_s_p50", replicas, 0.5)
	rep.setPct("ensemble.replica_s_p90", replicas, 0.9)
	return nil
}

// sessionLayer fills the session metrics from the specs of req.
func sessionLayer(rep *report, req *request) error {
	build, reset, err := sessionTimings(req.sub.Specs)
	if err != nil {
		return err
	}
	rep.setPct("session.build_us", build, 0.5)
	rep.setPct("session.reset_us", reset, 0.5)
	return nil
}

// storeDirs makes one empty store directory for each set-up, so that
// nothing is served from an earlier set-up's cache. It lays each out
// with store.OpenFS beforehand: a set-up times surfd starting on an
// existing, empty data directory, because a first mkdir on the
// benchmark host's ext4 takes from 0.2 to 3 ms, varying between
// processes.
func storeDirs(parent string) ([]string, error) {
	dirs := make([]string, surfdSetups)
	for i := range dirs {
		dir, err := os.MkdirTemp(parent, "store-")
		if err != nil {
			return nil, err
		}
		if _, err := store.OpenFS(dir); err != nil {
			return nil, err
		}
		dirs[i] = dir
	}
	return dirs, nil
}

// sessionTimings builds sessions from the specs and Resets them, at
// least 40 times in all, returning build and Reset times in µs.
func sessionTimings(specs []*parsurf.SessionSpec) (build, reset []float64, err error) {
	reps := max(5, (40+len(specs)-1)/len(specs))
	for _, spec := range specs {
		var sess *parsurf.Session
		for k := 0; k < reps; k++ {
			t0 := time.Now()
			if sess, err = spec.Session(); err != nil {
				return nil, nil, err
			}
			build = append(build, float64(time.Since(t0))/1e3)
		}
		for k := 0; k < reps; k++ {
			src := parsurf.NewRNG(uint64(k))
			t0 := time.Now()
			sess.Reset(src)
			reset = append(reset, float64(time.Since(t0))/1e3)
		}
	}
	return build, reset, nil
}

func runSweep(rc runConfig, tr *Tracer) (*report, error) { return runSweepRequests(rc, tr, false) }

func runFleet(rc runConfig, tr *Tracer) (*report, error) { return runSweepRequests(rc, tr, true) }

// runSweepRequests is the sweep workload against an in-memory surfd or,
// with fleetMode, against a fleet-mode surfd whose every result is then
// compared with the in-memory surfd's result for the same request.
func runSweepRequests(rc runConfig, tr *Tracer, fleetMode bool) (*report, error) {
	var dirs []string
	if fleetMode {
		var err error
		if dirs, err = storeDirs(rc.dir); err != nil {
			return nil, err
		}
	}
	var srv *surfd
	setupS, err := timedSetups(surfdSetups, func() error {
		o := surfdOptions{tr: tr}
		if fleetMode {
			o.dataDir, dirs = dirs[0], dirs[1:]
			o.fleet, o.workers = true, rc.nproc
		}
		var err error
		srv, err = startSurfd(o)
		return err
	}, func() { srv.close() })
	if err != nil {
		return nil, err
	}
	defer func() { srv.close() }()
	srv.resetRecorders()

	// The references for the output check, computed outside set-up.
	reqAt := func(i int) (*request, error) { return sweepRequest(rc.seed, i, rc.nproc) }
	refs := map[int]*reference{}
	for _, i := range sampleIndices(rc.seed, 1, refCount, refPool) {
		req, err := reqAt(i)
		if err != nil {
			return nil, err
		}
		if refs[i], err = directSweep(req, false); err != nil {
			return nil, err
		}
	}

	rep := &report{setupS: setupS, layers: map[string]float64{}}
	cl := newClient(srv.base, tr)
	all := newRecorders(tr)
	var (
		outs   []*jobOutcome
		bodies [][]byte
	)
	start := time.Now()
	for i := 0; rc.measuring(start, i); i++ {
		if !fleetMode && i > 0 && i%sweepEpoch == 0 {
			// As in runJobs, with the window stopped for it.
			t0 := time.Now()
			all.absorb(srv)
			srv.close()
			if srv, err = startSurfd(surfdOptions{tr: tr}); err != nil {
				return nil, err
			}
			cl = newClient(srv.base, tr)
			start = start.Add(time.Since(t0))
		}
		req, err := reqAt(i)
		if err != nil {
			return nil, err
		}
		rep.attempted++
		out, err := cl.runJob(req.body, false)
		if err != nil {
			rep.fail("request %d: %v", i, err)
			continue
		}
		if ref, ok := refs[i]; ok && !bytes.Equal(ref.variants, out.variants) {
			rep.fail("request %d (%s): result differs from a direct RunSweep", i, out.id)
			continue
		}
		rep.ops = append(rep.ops, out.latency)
		outs = append(outs, out)
		bodies = append(bodies, req.body)
	}
	rep.window = time.Since(start).Seconds()
	if tr != nil {
		if err := ensembleTimings(rep, reqAt); err != nil {
			return nil, err
		}
		if fleetMode {
			srv.layerMetrics(rep, outs)
		} else {
			all.absorb(srv)
			all.layerMetrics(rep, outs)
		}
		first, err := reqAt(0)
		if err != nil {
			return nil, err
		}
		if err := sessionLayer(rep, first); err != nil {
			return nil, err
		}
		if !fleetMode {
			if err := engineLayer(rc, tr, rep); err != nil {
				return nil, err
			}
		}
	}
	if fleetMode {
		// Every fleet result must be byte-identical to the sweep
		// result for the same request.
		mem, err := startSurfd(surfdOptions{})
		if err != nil {
			return nil, err
		}
		defer mem.close()
		mc := newClient(mem.base, nil)
		for k, out := range outs {
			local, err := mc.runJob(bodies[k], false)
			if err != nil {
				return nil, fmt.Errorf("replaying %s in memory: %w", out.id, err)
			}
			if !bytes.Equal(local.variants, out.variants) {
				rep.fail("fleet job %s: result differs from the in-memory surfd's", out.id)
			}
		}
	}
	return rep, nil
}

// How many jobs one surfd serves before the sweep or jobs workload
// replaces it with a fresh one, between operations. surfd keeps every
// job for its whole life: a jobs job held about 90 KB and a sweep job
// about 5 MB, so one surfd serving all of a run's jobs grew to 7 GB on
// jobs and 0.9 GB on sweep. A fleet run, of about 35 jobs, keeps its
// surfd.
const (
	jobsEpoch  = 1000
	sweepEpoch = 40
)

// runJobs is the jobs workload: jobsClients closed-loop clients against
// a surfd whose durable manager runs on the in-memory store, a seeded
// share of them repeating completed requests. The store is in memory
// because fsync latency on a shared host's disk varied threefold
// between runs; the fleet workload keeps the store on disk.
func runJobs(rc runConfig, tr *Tracer) (*report, error) {
	var srv *surfd
	setupS, err := timedSetups(surfdSetups, func() error {
		var err error
		srv, err = startSurfd(surfdOptions{memStore: true, tr: tr})
		return err
	}, func() { srv.close() })
	if err != nil {
		return nil, err
	}
	defer func() { srv.close() }()
	srv.resetRecorders()

	// The references for the output check, computed outside set-up.
	type refKey struct{ client, fresh int }
	refs := map[refKey]*reference{}
	for c := 0; c < jobsClients; c++ {
		for _, f := range sampleIndices(rc.seed, 2+uint64(c), jobsRefCount, jobsRefPool) {
			req, err := jobsRequest(rc.seed, c, f)
			if err != nil {
				return nil, err
			}
			if refs[refKey{c, f}], err = directSweep(req, false); err != nil {
				return nil, err
			}
		}
	}

	// A client's state outlives the surfds. Its repeats draw from the
	// requests the current surfd completed, so that the cache answers
	// them.
	type served struct{ body, variants []byte }
	type clientState struct {
		r     *rand.Rand
		fresh int
		done  []served
	}
	clients := make([]*clientState, jobsClients)
	for c := range clients {
		clients[c] = &clientState{r: rand.New(rand.NewPCG(rc.seed, 100+uint64(c)))}
	}
	all := newRecorders(tr)
	rep := &report{setupS: setupS, layers: map[string]float64{}}
	var (
		mu       sync.Mutex
		outs     []*jobOutcome
		cachedMs []float64
		genErr   error
	)
	start := time.Now()
	for epoch := 0; rc.measuring(start, 0) && genErr == nil; epoch++ {
		if epoch > 0 {
			// The replacement is not the system's work: the window
			// stops for it, so the clients still get rc.seconds.
			t0 := time.Now()
			all.absorb(srv)
			srv.close()
			if srv, err = startSurfd(surfdOptions{memStore: true, tr: tr}); err != nil {
				return nil, err
			}
			start = start.Add(time.Since(t0))
		}
		var (
			wg   sync.WaitGroup
			sent atomic.Int64
		)
		for c, cs := range clients {
			cs.done = nil
			wg.Add(1)
			go func(c int, cs *clientState) {
				defer wg.Done()
				cl := newClient(srv.base, tr)
				for rc.measuring(start, 0) && sent.Add(1) <= jobsEpoch {
					var (
						body  []byte
						first []byte // the first serving, for a repeat
						ref   *reference
					)
					if len(cs.done) > 0 && cs.r.Float64() < jobsRepeat {
						s := cs.done[cs.r.IntN(len(cs.done))]
						body, first = s.body, s.variants
					} else {
						req, err := jobsRequest(rc.seed, c, cs.fresh)
						if err != nil {
							mu.Lock()
							genErr = err
							mu.Unlock()
							return
						}
						body, ref = req.body, refs[refKey{c, cs.fresh}]
						cs.fresh++
					}
					out, err := cl.runJob(body, true)
					mu.Lock()
					rep.attempted++
					switch {
					case err != nil:
						rep.fail("client %d: %v", c, err)
					case first != nil && !bytes.Equal(first, out.variants):
						rep.fail("client %d: job %s (cached %v) differs from its first serving", c, out.id, out.cached)
					case ref != nil && !bytes.Equal(ref.variants, out.variants):
						rep.fail("client %d: job %s differs from a direct RunSweep", c, out.id)
					default:
						rep.ops = append(rep.ops, out.latency)
						outs = append(outs, out)
						if out.cached {
							cachedMs = append(cachedMs, out.latency*1e3)
						}
					}
					mu.Unlock()
					if err == nil && first == nil {
						cs.done = append(cs.done, served{body, out.variants})
					}
				}
			}(c, cs)
		}
		wg.Wait()
	}
	if genErr != nil {
		return nil, genErr
	}
	rep.window = time.Since(start).Seconds()
	if tr != nil {
		reqAt := func(i int) (*request, error) { return jobsRequest(rc.seed, 0, i) }
		if err := ensembleTimings(rep, reqAt); err != nil {
			return nil, err
		}
		all.absorb(srv)
		all.layerMetrics(rep, outs)
		lat := make([]float64, len(outs))
		for i, o := range outs {
			lat[i] = o.latency
		}
		rep.setPct("job.latency_s_p90", lat, 0.9)
		rep.layers["job.cache_hit_frac"] = float64(len(cachedMs)) / float64(max(len(outs), 1))
		rep.setPct("job.cached_ms_p50", cachedMs, 0.5)
		first, err := reqAt(0)
		if err != nil {
			return nil, err
		}
		if err := sessionLayer(rep, first); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

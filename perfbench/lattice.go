package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime/metrics"
	"syscall"
	"time"

	"parsurf"
	"parsurf/perfbench/zgbstate"
)

// The engine layer is measured from this committed steady-state
// configuration, defined by package zgbstate and written by ./genstate.
// Its SHA-256 is checked at load time.
const stateFile = "perfbench/testdata/zgb512.ckpt"

// engineCase is one engine configuration of the engine layer. Each pass
// Resets the engine onto the committed configuration and calls Step
// budget times.
type engineCase struct {
	label   string // metric name: the engine, or "<engine>.w1" for the serial baseline
	engine  string
	workers int // 0: the engine takes no workers option
	budget  int // Step calls per pass
	event   bool
}

// latticeCases lists the engines the paper compares. The budgets give
// each pass tens of milliseconds on one core; vssm and frm advance one
// reaction per Step, the others one MC step of N trials.
func latticeCases(nproc int) []engineCase {
	return []engineCase{
		{label: "rsm", engine: "rsm", budget: 2},
		{label: "vssm", engine: "vssm", budget: 25000, event: true},
		{label: "frm", engine: "frm", budget: 15000, event: true},
		{label: "lpndca", engine: "lpndca", budget: 2},
		{label: "pndca", engine: "pndca", workers: nproc, budget: 5},
		{label: "typepart", engine: "typepart", workers: nproc, budget: 6},
		{label: "ddrsm", engine: "ddrsm", workers: nproc, budget: 5},
		{label: "pndca.w1", engine: "pndca", workers: 1, budget: 5},
		{label: "typepart.w1", engine: "typepart", workers: 1, budget: 6},
		{label: "ddrsm.w1", engine: "ddrsm", workers: 1, budget: 5},
	}
}

// parallelEngines have a worker path, measured against their w1 pass.
var parallelEngines = []string{"pndca", "typepart", "ddrsm"}

// bitExactEngines must end on the same lattice at workers 1 and nproc.
var bitExactEngines = map[string]bool{"pndca": true, "typepart": true}

// loadState reads the committed configuration, refusing a file whose
// SHA-256 differs from the pinned one.
func loadState() (*parsurf.Checkpoint, error) {
	data, err := os.ReadFile(stateFile)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != zgbstate.SHA256 {
		return nil, fmt.Errorf("%s: SHA-256 %s, want %s", stateFile, got, zgbstate.SHA256)
	}
	return parsurf.LoadCheckpoint(bytes.NewReader(data))
}

// latticeRig is the set-up state of the engine layer.
type latticeRig struct {
	start    *parsurf.Checkpoint
	cases    []engineCase
	sessions []*parsurf.Session
}

func setupLattice(nproc int, seed uint64) (*latticeRig, error) {
	cp, err := loadState()
	if err != nil {
		return nil, err
	}
	rig := &latticeRig{start: cp, cases: latticeCases(nproc)}
	for _, c := range rig.cases {
		var opts []parsurf.EngineOption
		if c.workers > 0 {
			opts = append(opts, parsurf.Workers(c.workers))
		}
		spec, err := parsurf.NewSpec(
			parsurf.WithModelPreset("zgb", nil),
			parsurf.WithLattice(zgbstate.Side, zgbstate.Side),
			parsurf.WithEngine(c.engine, opts...),
			parsurf.WithSeed(seed),
		)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		sess, err := spec.Session()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		rig.sessions = append(rig.sessions, sess)
	}
	return rig, nil
}

// passStats are the measurements of one case over the run.
type passStats struct {
	wall, simt []float64 // per pass
	stepMs     []float64 // per Step (traced, parallel engines only)
	trials     uint64
	successes  uint64
	hasSucc    bool
	deferred   uint64
	allocs     uint64
	cpu        float64 // process CPU seconds during passes (traced)
}

// Engine counters read through the engines' public accessors.
type (
	trialCounter   interface{ Trials() uint64 }
	successCounter interface{ Successes() uint64 }
	visitCounter   interface{ Visits() uint64 }
	deferCounter   interface{ Deferred() uint64 }
)

// engineRounds is how many rounds of every engine pass the engine
// layer makes: 24 give 120 Steps of each parallel engine, enough for
// a p90 of the Step time.
const engineRounds = 24

// engineLayer fills the engine metrics of a traced run. Each round
// Resets every engine onto the committed 512² state and advances it
// its budget; each pass counts as one attempted operation of rep, and
// one that reaches an absorbing state, or a pndca or typepart pass
// that ends on another lattice at workers 1 than at NumCPU, fails.
func engineLayer(rc runConfig, tr *Tracer, rep *report) error {
	rig, err := setupLattice(rc.nproc, rc.seed)
	if err != nil {
		return err
	}
	stats := make([]passStats, len(rig.cases))
	n := uint64(zgbstate.Side * zgbstate.Side)
	allocSample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	for round := 0; round < engineRounds; round++ {
		hashes := map[string]string{}
		for ci, c := range rig.cases {
			sess := rig.sessions[ci]
			// Every case of a round draws from the same stream, so the
			// w1 and nproc passes of a bit-exact engine must agree.
			src := parsurf.NewRNG(rc.seed).Split(uint64(round) + 1)
			sess.Config().CopyFrom(rig.start.Config)
			eng := sess.Engine()
			eng.Reset(sess.Config(), src)
			st := &stats[ci]
			timeSteps := c.workers > 0
			metrics.Read(allocSample)
			allocs0 := allocSample[0].Value.Uint64()
			cpu0 := cpuSeconds()
			t0 := time.Now()
			absorbed := false
			for i := 0; i < c.budget; i++ {
				var s0 time.Time
				if timeSteps {
					s0 = time.Now()
				}
				if !eng.Step() {
					absorbed = true
					break
				}
				if timeSteps {
					st.stepMs = append(st.stepMs, float64(time.Since(s0))/1e6)
				}
			}
			t1 := time.Now()
			wall := t1.Sub(t0).Seconds()
			st.cpu += cpuSeconds() - cpu0
			metrics.Read(allocSample)
			st.allocs += allocSample[0].Value.Uint64() - allocs0
			tr.Record(tr.NewID(), 0, "engine."+c.label, fmt.Sprintf("round-%d", round), t0, t1)
			rep.attempted++
			if absorbed {
				rep.fail("engine round %d: %s reached an absorbing state within its budget", round, c.label)
				continue
			}
			st.wall = append(st.wall, wall)
			st.simt = append(st.simt, eng.Time())
			switch e := eng.(type) {
			case trialCounter:
				st.trials += e.Trials()
			case visitCounter:
				st.trials += e.Visits()
			default:
				if c.event {
					st.trials += eng.Steps()
				} else {
					st.trials += eng.Steps() * n
				}
			}
			if e, has := eng.(successCounter); has {
				st.successes += e.Successes()
				st.hasSucc = true
			}
			if e, has := eng.(deferCounter); has {
				st.deferred += e.Deferred()
			}
			if bitExactEngines[c.engine] {
				sum := sha256.Sum256(cellBytes(sess.Config()))
				h := hex.EncodeToString(sum[:])
				if prev, seen := hashes[c.engine]; seen && prev != h {
					rep.fail("engine round %d: %s ends on lattice %s.. at workers %d, %s.. at workers %d",
						round, c.engine, prev[:8], rc.nproc, h[:8], 1)
				}
				hashes[c.engine] = h
			}
		}
	}

	simtRate := map[string]float64{}
	for ci, c := range rig.cases {
		st := &stats[ci]
		rates := make([]float64, len(st.wall))
		for i := range st.wall {
			rates[i] = st.simt[i] / st.wall[i]
		}
		simtRate[c.label] = median(rates)
		if len(c.label) > len(c.engine) {
			continue // serial baselines feed the speedup metrics below
		}
		unit := "trial"
		if c.event {
			unit = "event"
		}
		pre := "engine." + c.label + "."
		rep.layers[pre+"simt_per_s"] = simtRate[c.label]
		if st.trials > 0 {
			rep.layers[pre+"ns_per_"+unit] = sum(st.wall) * 1e9 / float64(st.trials)
			rep.layers[pre+"allocs_per_"+unit] = float64(st.allocs) / float64(st.trials)
			if st.hasSucc {
				rep.layers[pre+"success_frac"] = float64(st.successes) / float64(st.trials)
			}
			if c.engine == "ddrsm" {
				rep.layers[pre+"deferred_frac"] = float64(st.deferred) / float64(st.trials)
			}
		}
		if c.workers > 0 {
			rep.setPct(pre+"step_ms_p50", st.stepMs, 0.5)
			rep.setPct(pre+"step_ms_p90", st.stepMs, 0.9)
			rep.layers[pre+"cpu_per_wall"] = st.cpu / sum(st.wall)
		}
	}
	for _, e := range parallelEngines {
		rep.layers["engine."+e+".serial_simt_per_s"] = simtRate[e+".w1"]
		if s := simtRate[e+".w1"]; s > 0 {
			rep.layers["engine."+e+".speedup"] = simtRate[e] / s
		}
	}
	return nil
}

// cellBytes returns the configuration's species values as bytes.
func cellBytes(cfg *parsurf.Config) []byte {
	cells := cfg.Cells()
	b := make([]byte, len(cells))
	for i, c := range cells {
		b[i] = byte(c)
	}
	return b
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

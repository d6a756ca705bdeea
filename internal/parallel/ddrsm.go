// Package parallel implements the chunk-parallel DMC approach of Segers
// et al. that §3 of the paper describes as the prior art its partitioned
// CA methods are an alternative to: the lattice is decomposed into
// coherent strips, one worker simulates each strip with RSM, and
// reactions that touch strip boundaries require synchronisation between
// neighbours. The paper's observation — that communication overhead
// makes this profitable only when work per chunk is large relative to
// the boundary — is what internal/machine quantifies.
//
// The MPI communication of the original is rebuilt with goroutines and
// channels: boundary trials are shipped over a channel to a sequential
// resolution phase, a window-synchronisation scheme used by parallel
// KMC codes.
package parallel

import (
	"fmt"
	"sync"

	"parsurf/internal/lattice"
	"parsurf/internal/model"
	"parsurf/internal/rng"
)

// DDRSM is the domain-decomposed Random Selection Method. One step is
// one MC step (N trials): every worker attempts |strip| trials at
// uniform sites of its strip; trials whose reaction pattern could reach
// outside the strip's interior are deferred over a channel and executed
// sequentially after a barrier. Within a window of one step this
// approximates RSM; the deferral is the accuracy cost of batching the
// communication.
type DDRSM struct {
	cm    *model.Compiled
	cfg   *lattice.Config
	cells []lattice.Species
	src   *rng.Source

	strips []strip
	radius int
	time   float64

	// DeterministicTime advances 1/(N·K) per trial instead of Exp(N·K).
	DeterministicTime bool

	trials    uint64
	successes uint64
	deferred  uint64
	barriers  uint64
	steps     uint64

	// Per-step scratch, reused so the steady-state step allocates
	// nothing: the per-step base stream, one worker record per strip
	// (each with its own derived stream and deferred-trial buffer), the
	// merged deferral list, and the step barrier.
	stepBase    rng.Source
	workers     []stripWorker
	runFns      []func() // bound worker method values, allocated once
	allDeferred []deferredTrial
	wg          sync.WaitGroup
}

// stripWorker is one strip's per-step state. The strip goroutine writes
// only its own record; the sequential merge phase reads them in strip
// order after the barrier.
type stripWorker struct {
	d              *DDRSM
	idx            int
	stream         rng.Source
	deferredTrials []deferredTrial
	successes      uint64
	trials         uint64
	dt             float64
}

type strip struct {
	loRow, hiRow int // [loRow, hiRow)
	sites        int
}

type deferredTrial struct {
	site int
	rt   int
}

// NewDDRSM decomposes the lattice into p horizontal strips. Every strip
// must be at least 2·radius+1 rows tall so its interior is non-empty.
func NewDDRSM(cm *model.Compiled, cfg *lattice.Config, src *rng.Source, p int) (*DDRSM, error) {
	if !cfg.Lattice().SameShape(cm.Lat) {
		return nil, fmt.Errorf("parallel: configuration lattice differs from compiled lattice")
	}
	if p < 1 {
		return nil, fmt.Errorf("parallel: need at least one strip, got %d", p)
	}
	radius := cm.Model.MaxPatternRadius()
	rows := cm.Lat.L1
	if rows/p < 2*radius+1 {
		return nil, fmt.Errorf("parallel: %d rows cannot host %d strips of >= %d rows", rows, p, 2*radius+1)
	}
	d := &DDRSM{cm: cm, cfg: cfg, cells: cfg.Cells(), src: src, radius: radius}
	for w := 0; w < p; w++ {
		lo := w * rows / p
		hi := (w + 1) * rows / p
		d.strips = append(d.strips, strip{loRow: lo, hiRow: hi, sites: (hi - lo) * cm.Lat.L0})
	}
	d.workers = make([]stripWorker, p)
	// Deferred trials land in the 2·radius boundary rows of each strip,
	// so a step defers about 2·radius·L0 trials per strip on average
	// (binomial, sd ≈ √mean). Presizing the buffers at 4× the mean puts
	// the capacity tens of standard deviations above any count a run
	// will ever see, so the steady-state step allocates nothing.
	band := 4 * 2 * radius * cm.Lat.L0
	d.runFns = make([]func(), p)
	for w := range d.workers {
		d.workers[w].d = d
		d.workers[w].idx = w
		d.workers[w].deferredTrials = make([]deferredTrial, 0, band)
		// Bind the method value once: `go d.runFns[w]()` then passes a
		// zero-argument funcval to the scheduler, where a direct
		// `go d.workers[w].run()` would heap-allocate a wrapper
		// closure on every launch.
		d.runFns[w] = d.workers[w].run
	}
	d.allDeferred = make([]deferredTrial, 0, band*p)
	return d, nil
}

// Reset rewinds the engine over a fresh configuration (see
// registry.Engine.Reset). The strip decomposition is kept; the step
// counter rewinds, which also rewinds the per-step derived stream ids,
// so a reset engine reproduces a fresh one's trajectory exactly.
func (d *DDRSM) Reset(cfg *lattice.Config, src *rng.Source) {
	if !cfg.Lattice().SameShape(d.cm.Lat) {
		panic("parallel: Reset configuration lattice differs from compiled lattice")
	}
	d.cfg, d.cells, d.src = cfg, cfg.Cells(), src
	d.time = 0
	d.trials, d.successes, d.deferred, d.barriers, d.steps = 0, 0, 0, 0, 0
}

// Workers returns the number of strips.
func (d *DDRSM) Workers() int { return len(d.strips) }

// interior reports whether a trial at site s stays strictly inside the
// strip [loRow, hiRow): the pattern radius must not reach the strip
// edges.
func (d *DDRSM) interior(st strip, s int) bool {
	_, y := d.cm.Lat.Coords(s)
	return y-d.radius >= st.loRow && y+d.radius < st.hiRow
}

// Step performs one windowed MC step.
//
//surflint:hotpath
func (d *DDRSM) Step() bool {
	p := len(d.strips)

	// Per-step derived streams make the outcome independent of
	// goroutine scheduling.
	d.steps++
	d.src.SplitInto(&d.stepBase, d.steps)

	d.wg.Add(p)
	for w := 0; w < p; w++ {
		// Intended fan-out: one goroutine per strip per window step,
		// amortized over the whole interior sweep; runFns are built at
		// Reset so the launch itself does not allocate.
		//surflint:allow hotpath
		go d.runFns[w]()
	}
	d.wg.Wait() // barrier: all interior work done
	d.barriers++

	// Sequential boundary phase. Subtotals merge in strip order so the
	// floating-point time sum is deterministic (goroutine completion
	// order must not leak into the clock); the deferred trials are then
	// re-sorted by (site, rt) — their intra-window order is unspecified
	// anyway, which is exactly the windowing approximation. The merge
	// buffer and every per-strip deferral buffer are struct-held and
	// reused, so the steady-state step allocates nothing.
	allDeferred := d.allDeferred[:0]
	for w := range d.workers {
		wk := &d.workers[w]
		d.successes += wk.successes
		d.trials += wk.trials
		d.time += wk.dt
		allDeferred = append(allDeferred, wk.deferredTrials...)
	}
	d.allDeferred = allDeferred
	sortDeferred(allDeferred)
	for _, tr := range allDeferred {
		if d.cm.TryExecute(d.cells, tr.rt, tr.site) {
			d.successes++
		}
	}
	d.deferred += uint64(len(allDeferred))
	d.barriers++
	return true
}

// run performs one strip's interior trials for the step in flight. It
// writes only its own record; interior trials touch only this strip's
// rows, so concurrent execution cannot race with the other strips.
func (wk *stripWorker) run() {
	d := wk.d
	defer d.wg.Done()
	st := d.strips[wk.idx]
	nk := float64(d.cm.Lat.N()) * d.cm.K
	d.stepBase.SplitInto(&wk.stream, uint64(wk.idx))
	stream := &wk.stream
	wk.deferredTrials = wk.deferredTrials[:0]
	wk.successes, wk.trials, wk.dt = 0, 0, 0
	for i := 0; i < st.sites; i++ {
		row := st.loRow + stream.Intn(st.hiRow-st.loRow)
		col := stream.Intn(d.cm.Lat.L0)
		s := d.cm.Lat.Index(col, row)
		rt := d.cm.PickType(stream.Float64())
		wk.trials++
		if d.DeterministicTime {
			wk.dt += 1 / nk
		} else {
			wk.dt += stream.Exp(nk)
		}
		if d.interior(st, s) {
			if d.cm.TryExecute(d.cells, rt, s) {
				wk.successes++
			}
		} else {
			wk.deferredTrials = append(wk.deferredTrials, deferredTrial{site: s, rt: rt})
		}
	}
}

// sortDeferred orders trials by (site, rt) with an insertion sort; the
// slices are short (boundary bands only).
func sortDeferred(ts []deferredTrial) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0; j-- {
			a, b := ts[j-1], ts[j]
			if a.site < b.site || (a.site == b.site && a.rt <= b.rt) {
				break
			}
			ts[j-1], ts[j] = b, a
		}
	}
}

// Time returns the simulated time.
func (d *DDRSM) Time() float64 { return d.time }

// Config returns the live configuration.
func (d *DDRSM) Config() *lattice.Config { return d.cfg }

// Trials returns the attempted trials.
func (d *DDRSM) Trials() uint64 { return d.trials }

// Successes returns the executed reactions.
func (d *DDRSM) Successes() uint64 { return d.successes }

// Deferred returns the number of boundary trials shipped to the
// sequential phase — the communication volume of the decomposition.
func (d *DDRSM) Deferred() uint64 { return d.deferred }

// Barriers returns the number of synchronisation barriers so far.
func (d *DDRSM) Barriers() uint64 { return d.barriers }

// Benchmarks regenerating the computational core of every table and
// figure in the paper's evaluation, plus ablations. Sizes are scaled
// down from the paper's 100×100/1000×1000 so `go test -bench=.`
// completes quickly; cmd/experiments runs the full-size versions (see
// the README's "surfsim CLI" section).
package parsurf_test

import (
	"testing"

	"parsurf"
	"parsurf/internal/ca"
	"parsurf/internal/lattice"
	"parsurf/internal/stats"
	"parsurf/internal/ziff"
)

// --- Table I ---------------------------------------------------------

// BenchmarkTable1ZGBTrials measures the cost of RSM trials on the seven
// reaction types of Table I.
func BenchmarkTable1ZGBTrials(b *testing.B) {
	lat := parsurf.NewSquareLattice(64)
	cm := parsurf.MustCompile(parsurf.NewZGBModel(parsurf.DefaultZGBRates()), lat)
	sim := parsurf.NewRSM(cm, parsurf.NewConfig(lat), parsurf.NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Trial()
	}
}

// --- Table II --------------------------------------------------------

// BenchmarkTable2TypePartitioned measures one step of the Ω×T algorithm
// over the Table II split.
func BenchmarkTable2TypePartitioned(b *testing.B) {
	lat := parsurf.NewSquareLattice(64)
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	cm := parsurf.MustCompile(m, lat)
	ts, err := parsurf.SplitByDirection(m, lat)
	if err != nil {
		b.Fatal(err)
	}
	sim := parsurf.NewTypePartitioned(cm, parsurf.NewConfig(lat), parsurf.NewRNG(1), ts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// --- Fig. 3 ----------------------------------------------------------

// BenchmarkFig3BCA1D measures the shifting-block 1-D CA.
func BenchmarkFig3BCA1D(b *testing.B) {
	initial := make([]lattice.Species, 3*64)
	for i := range initial {
		initial[i] = 1
	}
	initial[0] = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.BCA1D(initial, 3, 1, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 4 ----------------------------------------------------------

// BenchmarkFig4PartitionBuildVerify measures constructing the five-chunk
// partition and verifying the non-overlap rule at the paper's 100×100.
func BenchmarkFig4PartitionBuildVerify(b *testing.B) {
	lat := parsurf.NewSquareLattice(100)
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := parsurf.VonNeumann5(lat)
		if err != nil {
			b.Fatal(err)
		}
		if err := parsurf.VerifyNonOverlap(p, m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 6 ----------------------------------------------------------

// BenchmarkFig6SplitByDirection measures building and verifying the
// Table II / Fig. 6 checkerboard type split.
func BenchmarkFig6SplitByDirection(b *testing.B) {
	lat := parsurf.NewSquareLattice(100)
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := parsurf.SplitByDirection(m, lat)
		if err != nil {
			b.Fatal(err)
		}
		if err := ts.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 7 ----------------------------------------------------------

// BenchmarkFig7Speedup evaluates the full modeled speedup surface of
// Fig. 7 (9 sizes × 9 worker counts).
func BenchmarkFig7Speedup(b *testing.B) {
	mm := parsurf.DefaultMachine()
	sides := []int{200, 300, 400, 500, 600, 700, 800, 900, 1000}
	workers := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mm.SpeedupSurface(sides, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7PNDCAWorkers measures a real parallel PNDCA step at
// several worker counts (bit-identical trajectories; wall-clock gain
// requires multiple cores).
func BenchmarkFig7PNDCAWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			lat := parsurf.NewSquareLattice(50)
			cm := parsurf.MustCompile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), lat)
			part, err := parsurf.VonNeumann5(lat)
			if err != nil {
				b.Fatal(err)
			}
			sim := parsurf.NewPNDCA(cm, parsurf.NewConfig(lat), parsurf.NewRNG(1), part)
			sim.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
}

// --- Fig. 8 ----------------------------------------------------------

// BenchmarkFig8Limits measures L-PNDCA at the RSM-equivalent limit
// (m=1, L=N) on the Pt(100) model.
func BenchmarkFig8Limits(b *testing.B) {
	lat := parsurf.NewSquareLattice(40)
	cm := parsurf.MustCompile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), lat)
	sim := parsurf.NewLPNDCA(cm, parsurf.NewConfig(lat), parsurf.NewRNG(1),
		parsurf.SingleChunk(lat), lat.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// --- Fig. 9 ----------------------------------------------------------

// BenchmarkFig9L measures L-PNDCA steps for the two L values of Fig. 9.
func BenchmarkFig9L(b *testing.B) {
	for _, l := range []int{1, 100} {
		b.Run(benchName("L", l), func(b *testing.B) {
			lat := parsurf.NewSquareLattice(40)
			cm := parsurf.MustCompile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), lat)
			part, err := parsurf.VonNeumann5(lat)
			if err != nil {
				b.Fatal(err)
			}
			sim := parsurf.NewLPNDCA(cm, parsurf.NewConfig(lat), parsurf.NewRNG(1), part, l)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
}

// --- Fig. 10 ---------------------------------------------------------

// BenchmarkFig10RandomOrder measures the random-order once-per-step
// sweep at the maximal L = N/m.
func BenchmarkFig10RandomOrder(b *testing.B) {
	lat := parsurf.NewSquareLattice(40)
	cm := parsurf.MustCompile(parsurf.NewPtCOModel(parsurf.DefaultPtCORates()), lat)
	part, err := parsurf.VonNeumann5(lat)
	if err != nil {
		b.Fatal(err)
	}
	sim := parsurf.NewLPNDCA(cm, parsurf.NewConfig(lat), parsurf.NewRNG(1), part,
		lat.N()/part.NumChunks())
	sim.Strategy = parsurf.AllRandomOrder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// --- Ziff phase diagram ---------------------------------------------

// BenchmarkZGBPhaseDiagram measures one phase-diagram point of the
// classic adsorption-limited ZGB model.
func BenchmarkZGBPhaseDiagram(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ziff.Measure(32, 0.46, 20, 10, uint64(i))
	}
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblationEngines compares the exact DMC engines per unit of
// work on identical ZGB systems: RSM per N trials, VSSM and FRM per N
// events.
func BenchmarkAblationEngines(b *testing.B) {
	lat := parsurf.NewSquareLattice(64)
	cm := parsurf.MustCompile(parsurf.NewZGBModel(parsurf.DefaultZGBRates()), lat)
	b.Run("rsm", func(b *testing.B) {
		sim := parsurf.NewRSM(cm, parsurf.NewConfig(lat), parsurf.NewRNG(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Step()
		}
	})
	b.Run("vssm", func(b *testing.B) {
		sim := parsurf.NewVSSM(cm, parsurf.NewConfig(lat), parsurf.NewRNG(1))
		n := lat.N()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				if !sim.Step() {
					b.Fatal("absorbed")
				}
			}
		}
	})
	b.Run("frm", func(b *testing.B) {
		sim := parsurf.NewFRM(cm, parsurf.NewConfig(lat), parsurf.NewRNG(1))
		n := lat.N()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				if !sim.Step() {
					b.Fatal("absorbed")
				}
			}
		}
	})
}

// BenchmarkAblationChunkStrategies compares the four §5 chunk-selection
// strategies of L-PNDCA.
func BenchmarkAblationChunkStrategies(b *testing.B) {
	lat := parsurf.NewSquareLattice(50)
	cm := parsurf.MustCompile(parsurf.NewZGBModel(parsurf.DefaultZGBRates()), lat)
	part, err := parsurf.VonNeumann5(lat)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []struct {
		name     string
		strategy int
	}{
		{"order", int(parsurf.AllInOrder)},
		{"randomorder", int(parsurf.AllRandomOrder)},
		{"replacement", int(parsurf.RandomReplacement)},
		{"rates", int(parsurf.RateWeighted)},
	} {
		b.Run(s.name, func(b *testing.B) {
			sim := parsurf.NewLPNDCA(cm, parsurf.NewConfig(lat), parsurf.NewRNG(1), part, 10)
			sim.Strategy = parsurf.AllInOrder
			switch s.strategy {
			case int(parsurf.AllRandomOrder):
				sim.Strategy = parsurf.AllRandomOrder
			case int(parsurf.RandomReplacement):
				sim.Strategy = parsurf.RandomReplacement
			case int(parsurf.RateWeighted):
				sim.Strategy = parsurf.RateWeighted
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
}

// BenchmarkAblationSyncConflicts measures the synchronous NDCA with
// conflict resolution (what partitions avoid paying per step).
func BenchmarkAblationSyncConflicts(b *testing.B) {
	lat := parsurf.NewSquareLattice(64)
	cm := parsurf.MustCompile(parsurf.NewDiffusionModel(1), lat)
	cfg := parsurf.NewConfig(lat)
	cfg.Randomize([]float64{0.5, 0.5}, parsurf.NewRNG(2).Float64)
	sim := parsurf.NewSyncNDCA(cm, cfg, parsurf.NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkAblationDDRSM measures the Segers-style domain-decomposition
// baseline per MC step.
func BenchmarkAblationDDRSM(b *testing.B) {
	lat := parsurf.NewSquareLattice(64)
	cm := parsurf.MustCompile(parsurf.NewZGBModel(parsurf.DefaultZGBRates()), lat)
	sim, err := parsurf.NewDDRSM(cm, parsurf.NewConfig(lat), parsurf.NewRNG(1), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkAblationOscillationDetection measures the analysis pipeline
// of Figs. 8–10 (resampling + autocorrelation).
func BenchmarkAblationOscillationDetection(b *testing.B) {
	s := &stats.Series{}
	src := parsurf.NewRNG(3)
	for i := 0; i <= 4000; i++ {
		t := float64(i) * 0.25
		s.Append(t, 0.4+0.3*osc(t)+0.02*(src.Float64()-0.5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := stats.DetectOscillation(s, 800, 0.2); !ok {
			b.Fatal("oscillation lost")
		}
	}
}

func osc(t float64) float64 {
	// Triangle wave with period 25, cheap stand-in for a sine.
	phase := t / 25
	frac := phase - float64(int(phase))
	if frac < 0.5 {
		return 4*frac - 1
	}
	return 3 - 4*frac
}

func benchName(prefix string, v int) string {
	if v < 10 {
		return prefix + "=" + string(rune('0'+v))
	}
	out := ""
	for v > 0 {
		out = string(rune('0'+v%10)) + out
		v /= 10
	}
	return prefix + "=" + out
}

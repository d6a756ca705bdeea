package model

import "parsurf/internal/lattice"

// Species of the Pt(100) surface-reconstruction model (§6 of the paper,
// after Kuzovkov et al. and Kortlüke et al.). Every site carries a
// surface phase — hexagonal (hex) or reconstructed square (1×1, "sq") —
// and an adsorbate. The paper does not reproduce Kuzovkov's full rate
// table; this is a reformulation in the paper's own reaction-type
// formalism.
const (
	PtHexEmpty lattice.Species = 0 // hex phase, vacant
	PtHexCO    lattice.Species = 1 // hex phase, CO adsorbed
	PtHexO     lattice.Species = 2 // hex phase, O adsorbed (unused by the dynamics, kept for completeness)
	PtSqEmpty  lattice.Species = 3 // square phase, vacant
	PtSqCO     lattice.Species = 4 // square phase, CO adsorbed
	PtSqO      lattice.Species = 5 // square phase, O adsorbed
)

// PtCORates parameterises the oscillation model.
//
// Mechanism (each line a family of reaction types):
//
//   - CO adsorbs on any vacant site at rate YCO.
//   - O2 adsorbs dissociatively on pairs of vacant *square* sites only,
//     at rate YO2 per orientation (the hex reconstruction of Pt(100)
//     does not dissociate O2).
//   - CO desorbs at rate KDes.
//   - CO diffuses to vacant neighbour sites at rate KDiff per direction
//     (fast diffusion synchronises the lattice, as the paper notes for
//     Fig. 10).
//   - Adjacent CO and O react to CO2 and leave two vacancies, rate KRx.
//   - Phase fronts: a CO-covered hex site adjacent to a square site
//     transforms to square at rate VLift (CO lifts the reconstruction,
//     islands of the 1×1 phase grow); a vacant square site adjacent to
//     a hex site relaxes to hex at rate VRelax (the reconstruction
//     re-forms from phase boundaries).
//   - Nucleation: a CO-covered hex site anywhere converts at the small
//     rate VNucLift (seeds 1×1 islands); a vacant square site anywhere
//     relaxes at the small rate VNucRelax.
//
// The front/nucleation split gives the phase dynamics the hysteresis
// that produces relaxation oscillations: a mostly-hex CO-covered surface
// converts to 1×1, oxygen then adsorbs and burns off the CO, the emptied
// 1×1 relaxes back to hex from its boundaries, and CO accumulates again.
type PtCORates struct {
	YCO       float64
	YO2       float64
	KDes      float64
	KDiff     float64
	KRx       float64
	VLift     float64
	VRelax    float64
	VNucLift  float64
	VNucRelax float64
}

// DefaultPtCORates places the model in the oscillatory regime used for
// the paper's Figs. 8–10 comparisons (tuned empirically).
func DefaultPtCORates() PtCORates {
	return PtCORates{
		YCO:       1.0,
		YO2:       1.0,
		KDes:      0.1,
		KDiff:     15.0,
		KRx:       50.0,
		VLift:     1.0,
		VRelax:    4.0,
		VNucLift:  0.01,
		VNucRelax: 0.001,
	}
}

// NewPtCO builds the Pt(100) CO-oxidation model with surface
// reconstruction.
func NewPtCO(r PtCORates) *Model {
	axes := lattice.Axes4()
	m := &Model{Species: []string{"h*", "hCO", "hO", "s*", "sCO", "sO"}}

	add := func(name string, rate float64, triples ...Triple) {
		if rate <= 0 {
			return
		}
		m.Types = append(m.Types, ReactionType{Name: name, Rate: rate, Triples: triples})
	}

	// CO adsorption on both phases.
	add("COads(hex)", r.YCO, Triple{Off: lattice.Vec{}, Src: PtHexEmpty, Tgt: PtHexCO})
	add("COads(sq)", r.YCO, Triple{Off: lattice.Vec{}, Src: PtSqEmpty, Tgt: PtSqCO})

	// O2 dissociative adsorption on square-phase pairs, two orientations.
	for j, d := range axes[:2] {
		add("O2ads("+itoa(j)+")", r.YO2,
			Triple{Off: lattice.Vec{}, Src: PtSqEmpty, Tgt: PtSqO},
			Triple{Off: d, Src: PtSqEmpty, Tgt: PtSqO},
		)
	}

	// CO desorption from both phases.
	add("COdes(hex)", r.KDes, Triple{Off: lattice.Vec{}, Src: PtHexCO, Tgt: PtHexEmpty})
	add("COdes(sq)", r.KDes, Triple{Off: lattice.Vec{}, Src: PtSqCO, Tgt: PtSqEmpty})

	// CO diffusion: a CO hops to a vacant neighbour. The adsorbate
	// moves, the surface phases of both sites stay what they are.
	srcPhases := []struct{ co, emptied lattice.Species }{
		{PtHexCO, PtHexEmpty},
		{PtSqCO, PtSqEmpty},
	}
	dstPhases := []struct{ empty, filled lattice.Species }{
		{PtHexEmpty, PtHexCO},
		{PtSqEmpty, PtSqCO},
	}
	for j, d := range axes {
		for pi, p := range srcPhases {
			for qi, q := range dstPhases {
				add("COdiff("+itoa(j)+","+itoa(pi)+itoa(qi)+")", r.KDiff,
					Triple{Off: lattice.Vec{}, Src: p.co, Tgt: p.emptied},
					Triple{Off: d, Src: q.empty, Tgt: q.filled},
				)
			}
		}
	}

	// CO + O → CO2: the CO (either phase) reacts with an O on an
	// adjacent square site; both sites are vacated, phases preserved.
	for j, d := range axes {
		add("rx(hex,"+itoa(j)+")", r.KRx,
			Triple{Off: lattice.Vec{}, Src: PtHexCO, Tgt: PtHexEmpty},
			Triple{Off: d, Src: PtSqO, Tgt: PtSqEmpty},
		)
		add("rx(sq,"+itoa(j)+")", r.KRx,
			Triple{Off: lattice.Vec{}, Src: PtSqCO, Tgt: PtSqEmpty},
			Triple{Off: d, Src: PtSqO, Tgt: PtSqEmpty},
		)
	}

	// Lifting front: a CO-covered hex site next to any square-phase
	// site converts to square.
	sqStates := []lattice.Species{PtSqEmpty, PtSqCO, PtSqO}
	for j, d := range axes {
		for si, sq := range sqStates {
			add("lift(front,"+itoa(j)+","+itoa(si)+")", r.VLift,
				Triple{Off: lattice.Vec{}, Src: PtHexCO, Tgt: PtSqCO},
				Triple{Off: d, Src: sq, Tgt: sq},
			)
		}
	}
	// Lifting nucleation: a CO-covered hex site converts anywhere.
	add("lift(nuc)", r.VNucLift, Triple{Off: lattice.Vec{}, Src: PtHexCO, Tgt: PtSqCO})

	// Relaxation front: a vacant square site next to any hex-phase site
	// reverts to hex.
	hexStates := []lattice.Species{PtHexEmpty, PtHexCO}
	for j, d := range axes {
		for hi, hx := range hexStates {
			add("relax(front,"+itoa(j)+","+itoa(hi)+")", r.VRelax,
				Triple{Off: lattice.Vec{}, Src: PtSqEmpty, Tgt: PtHexEmpty},
				Triple{Off: d, Src: hx, Tgt: hx},
			)
		}
	}
	// Relaxation nucleation: a vacant square site reverts anywhere.
	add("relax(nuc)", r.VNucRelax, Triple{Off: lattice.Vec{}, Src: PtSqEmpty, Tgt: PtHexEmpty})

	return m
}

// PtCoverages extracts the CO, O and square-phase coverages from a
// configuration of the Pt(100) model, the observables of Figs. 8–10.
func PtCoverages(c *lattice.Config) (co, o, sq float64) {
	n := float64(c.Lattice().N())
	counts := c.CountAll(6)
	co = float64(counts[PtHexCO]+counts[PtSqCO]) / n
	o = float64(counts[PtHexO]+counts[PtSqO]) / n
	sq = float64(counts[PtSqEmpty]+counts[PtSqCO]+counts[PtSqO]) / n
	return
}

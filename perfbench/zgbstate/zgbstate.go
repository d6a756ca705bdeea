// Package zgbstate defines the engine layer's committed starting
// configuration: ZGB at the default Table I rates on a 512×512 lattice,
// run with rsm from the empty lattice for MCS MC steps and saved in the
// persist checkpoint format. The genstate command writes it with
// Generate; the benchmark loads it and refuses a file whose SHA-256 is
// not SHA256.
package zgbstate

import (
	"bytes"
	"context"
	"fmt"

	"parsurf"
)

const (
	Side   = 512      // lattice side
	Seed   = 20030422 // rsm seed
	MCS    = 1500     // MC steps run from the empty lattice
	SHA256 = "00487f8ad1298beb8acf9e5c5c944ffe55f63daeb7850b89aec049f23c08924d"
)

// Generate runs the generating simulation and returns the checkpoint
// bytes, the final configuration and its simulated time.
func Generate() ([]byte, *parsurf.Config, float64, error) {
	sess, err := parsurf.NewSession(
		parsurf.WithModelPreset("zgb", nil),
		parsurf.WithLattice(Side, Side),
		parsurf.WithEngine("rsm"),
		parsurf.WithSeed(Seed),
	)
	if err != nil {
		return nil, nil, 0, err
	}
	stats, err := sess.Run(context.Background(), parsurf.ForSteps(MCS))
	if err != nil {
		return nil, nil, 0, err
	}
	if stats.Steps != MCS {
		return nil, nil, 0, fmt.Errorf("run stopped after %d of %d steps (absorbing state)", stats.Steps, MCS)
	}
	var buf bytes.Buffer
	if err := parsurf.SaveCheckpoint(&buf, sess.Config(), parsurf.NewRNG(Seed), stats.Time); err != nil {
		return nil, nil, 0, err
	}
	return buf.Bytes(), sess.Config(), stats.Time, nil
}

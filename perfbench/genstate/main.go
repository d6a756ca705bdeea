// Command genstate writes the steady-state ZGB starting configuration of
// the benchmark's engine layer, as package zgbstate defines it.
//
//	cd perfbench && go run ./genstate
//
// It prints the seed, step count, coverages and SHA-256 of the file; the
// benchmark refuses a file whose SHA-256 differs from zgbstate.SHA256.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"

	"parsurf/perfbench/zgbstate"
)

func main() {
	out := flag.String("o", "testdata/zgb512.ckpt", "output checkpoint path")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "genstate:", err)
		os.Exit(1)
	}
}

func run(out string) error {
	data, cfg, simTime, err := zgbstate.Generate()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("size %d seed %d mcs %d time %g\n", zgbstate.Side, zgbstate.Seed, zgbstate.MCS, simTime)
	fmt.Printf("coverage * %.4f CO %.4f O %.4f\n", cfg.Coverage(0), cfg.Coverage(1), cfg.Coverage(2))
	fmt.Printf("sha256 %x\n", sha256.Sum256(data))
	return nil
}

// Command rlibm-funcgen regenerates internal/libm/zz_generated_funcs.go —
// the straight-line function backend — from the data tables embedded in
// internal/libm (zz_generated_data.go). Run it after rlibm-gen -emit has
// refreshed the data file:
//
//	go run ./cmd/rlibm-funcgen
//	go run ./cmd/rlibm-funcgen -out some/other/path.go
package main

import (
	"flag"
	"fmt"
	"os"

	"rlibm/internal/cliflags"
	"rlibm/internal/libm"
)

func main() {
	out := flag.String("out", "internal/libm/zz_generated_funcs.go", "output path")
	opts := cliflags.Register(flag.CommandLine)
	flag.Parse()

	ro, err := opts.Obs.Start()
	if err != nil {
		fatal(err)
	}
	defer ro.Close()

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := libm.EmitGeneratedFuncs(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlibm-funcgen:", err)
	os.Exit(1)
}

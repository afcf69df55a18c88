// Package cliflags is the single flag surface shared by the rlibm binaries
// (rlibm-gen, rlibm-check, rlibm-bench, rlibm-funcgen, rlibm-serve): worker
// parallelism (-j) and the observability bundle (-v/-q, -trace, -report,
// -cpuprofile/-memprofile). Each binary registers the one Options struct
// and starts it once; binary-specific flags stay in the binary.
package cliflags

import (
	"flag"
	"runtime"

	"rlibm/internal/obs"
)

// Options is the shared CLI configuration after flag parsing.
type Options struct {
	// Workers is the raw -j value: 0 means "use GOMAXPROCS" (resolve with
	// WorkerCount). Components document that results are identical for
	// every worker count.
	Workers int
	// Obs bundles -v/-q, -trace, -report and the pprof capture flags.
	Obs *obs.CommonFlags
}

// Register installs the shared flags on fs (typically flag.CommandLine) and
// returns the Options they populate after fs is parsed.
func Register(fs *flag.FlagSet) *Options {
	o := &Options{Obs: obs.RegisterCommonFlags(fs)}
	fs.IntVar(&o.Workers, "j", 0, "worker goroutines (0 = GOMAXPROCS); results are identical for every value")
	return o
}

// WorkerCount resolves -j to a concrete positive count.
func (o *Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Start opens the observability state the shared flags configure (logger,
// tracer, profiles). The caller must Close the returned RunObs.
func (o *Options) Start() (*obs.RunObs, error) {
	return o.Obs.Start()
}

package cliflags

import (
	"flag"
	"path/filepath"
	"runtime"
	"testing"

	"rlibm/internal/obs"
)

// TestRegisterParseStart: the shared flags parse into one Options, Start
// opens what they ask for, and Close releases it.
func TestRegisterParseStart(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := Register(fs)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := fs.Parse([]string{"-j", "3", "-q", "-trace", trace}); err != nil {
		t.Fatal(err)
	}
	if o.Workers != 3 || o.WorkerCount() != 3 {
		t.Errorf("Workers = %d (count %d), want 3", o.Workers, o.WorkerCount())
	}
	if !o.Obs.Quiet || o.Obs.TracePath != trace {
		t.Errorf("obs flags not populated: %+v", o.Obs)
	}
	run, err := o.Start()
	if err != nil {
		t.Fatal(err)
	}
	if run.Tracer == nil {
		t.Error("Start with -trace returned a nil tracer")
	}
	if err := run.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestWorkerCountDefault: -j 0 resolves to GOMAXPROCS and Start works with
// every flag at its default.
func TestWorkerCountDefault(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := o.WorkerCount(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("WorkerCount = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	run, err := o.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := (*obs.RunObs)(nil).Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

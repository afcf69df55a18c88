package campaign

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// brokenImpl perturbs the kernel result for a deterministic subset of inputs
// (bits%7 == 0), so resume tests exercise nonzero Wrong tallies and
// first-failure selection, not just Checked counting.
func brokenImpl(e *Engine) {
	inner := e.implOverride
	e.implOverride = func(fn, scheme string) func(float32) float64 {
		if inner != nil {
			if impl := inner(fn, scheme); impl != nil {
				return impl
			}
		}
		base, err := (&Engine{Plan: e.Plan}).implFor(fn, scheme)
		if err != nil {
			panic(err)
		}
		return func(x float32) float64 {
			y := base(x)
			if math.Float32bits(x)%7 == 0 {
				return y * 1.25
			}
			return y
		}
	}
}

// runToCompletion runs a fresh engine over the plan and returns its totals.
func runToCompletion(t *testing.T, plan *Plan, workers int, checkpoint string, breakImpl bool) *Totals {
	t.Helper()
	e := &Engine{Plan: plan, Workers: workers, CheckpointPath: checkpoint}
	if breakImpl {
		brokenImpl(e)
	}
	totals, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if totals.Interrupted || totals.UnitsDone != totals.UnitsTotal {
		t.Fatalf("uninterrupted run incomplete: %+v", totals)
	}
	return totals
}

// TestResumeBitIdentical is the PR's core claim: cancel a campaign
// mid-range, resume it from the checkpoint, and the final (checked, wrong)
// tallies — including per-combo splits and first-failure renderings — are
// bit-identical to an uninterrupted run, for any worker count, with and
// without injected failures.
func TestResumeBitIdentical(t *testing.T) {
	plan, err := NewPlan(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, breakImpl := range []bool{false, true} {
		name := "clean"
		if breakImpl {
			name = "injected-failures"
		}
		t.Run(name, func(t *testing.T) {
			baseline := runToCompletion(t, plan, 4, "", breakImpl)
			if breakImpl && baseline.Wrong == 0 {
				t.Fatal("injected-failure baseline found nothing wrong; injection is broken")
			}
			if !breakImpl && baseline.Wrong != 0 {
				t.Fatalf("clean baseline reported %d wrong", baseline.Wrong)
			}

			for _, workers := range []int{1, 3, 8} {
				ckpt := filepath.Join(t.TempDir(), CheckpointFile)

				// Phase 1: cancel after about a third of the units commit.
				ctx, cancel := context.WithCancel(context.Background())
				e := &Engine{Plan: plan, Workers: workers, CheckpointPath: ckpt}
				if breakImpl {
					brokenImpl(e)
				}
				committed := 0
				cancelAfter := len(plan.Units) / 3
				e.OnUnit = func(UnitResult) {
					committed++
					if committed == cancelAfter {
						cancel()
					}
				}
				partial, err := e.Run(ctx)
				cancel()
				if err == nil || !partial.Interrupted {
					t.Fatalf("workers=%d: cancelled run finished cleanly (err=%v, totals=%+v)", workers, err, partial)
				}
				if partial.UnitsDone >= len(plan.Units) || partial.UnitsDone < cancelAfter {
					t.Fatalf("workers=%d: cancelled run committed %d of %d units", workers, partial.UnitsDone, len(plan.Units))
				}

				// Phase 2: a fresh engine on the same checkpoint finishes the
				// campaign.
				e2 := &Engine{Plan: plan, Workers: workers, CheckpointPath: ckpt}
				if breakImpl {
					brokenImpl(e2)
				}
				resumed, err := e2.Run(context.Background())
				if err != nil {
					t.Fatalf("workers=%d: resume: %v", workers, err)
				}
				if resumed.UnitsResumed != partial.UnitsDone {
					t.Fatalf("workers=%d: resumed %d units, checkpoint held %d", workers, resumed.UnitsResumed, partial.UnitsDone)
				}
				if resumed.Interrupted || resumed.UnitsDone != len(plan.Units) {
					t.Fatalf("workers=%d: resumed run incomplete: %+v", workers, resumed)
				}

				// Bit-identical to the uninterrupted baseline.
				if resumed.Checked != baseline.Checked || resumed.Wrong != baseline.Wrong {
					t.Fatalf("workers=%d: resumed (checked=%d wrong=%d) != baseline (checked=%d wrong=%d)",
						workers, resumed.Checked, resumed.Wrong, baseline.Checked, baseline.Wrong)
				}
				if !reflect.DeepEqual(resumed.Combos, baseline.Combos) {
					t.Fatalf("workers=%d: per-combo totals diverged:\nresumed:  %+v\nbaseline: %+v",
						workers, resumed.Combos, baseline.Combos)
				}
			}
		})
	}
}

// TestResumeCompletedCampaignIsNoop: rerunning a finished campaign resumes
// every unit and reports the same totals without recomputing anything.
func TestResumeCompletedCampaignIsNoop(t *testing.T) {
	plan, err := NewPlan(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), CheckpointFile)
	first := runToCompletion(t, plan, 4, ckpt, false)

	e := &Engine{Plan: plan, Workers: 4, CheckpointPath: ckpt}
	reran := 0
	e.OnUnit = func(UnitResult) { reran++ }
	again, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reran != 0 {
		t.Fatalf("no-op rerun recomputed %d units", reran)
	}
	if again.UnitsResumed != len(plan.Units) {
		t.Fatalf("no-op rerun resumed %d of %d units", again.UnitsResumed, len(plan.Units))
	}
	if again.Checked != first.Checked || again.Wrong != first.Wrong || !reflect.DeepEqual(again.Combos, first.Combos) {
		t.Fatalf("no-op rerun totals diverged: %+v vs %+v", again, first)
	}
}

// TestBf16LaneExhaustive sweeps every bfloat16 bit pattern through the
// bfloat16 serving kernel against the oracle — the full bf16 claim for one
// combo, small enough (2^16 patterns) to prove in CI.
func TestBf16LaneExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("bf16 exhaustive sweep skipped in -short mode")
	}
	plan, err := NewPlan(Config{
		Funcs:    []string{"exp2"},
		Schemes:  []string{"rlibm"},
		Lanes:    []Lane{LaneBf16},
		UnitSize: 16384,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Plan: plan, Workers: 4}
	totals, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if totals.Wrong != 0 {
		t.Fatalf("bf16 sweep found %d mismatches; first: %s", totals.Wrong, totals.Combos[0].First)
	}
	// 2^16 patterns minus the skipped specials: 2*128 NaN/Inf patterns
	// (exponent all-ones) and the two signed zeros.
	const want = 1<<16 - 2*128 - 2
	if totals.Checked != want {
		t.Fatalf("bf16 sweep checked %d inputs, want %d", totals.Checked, want)
	}
}

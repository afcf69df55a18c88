package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rlibm/internal/obs"
	"rlibm/internal/oracle"
)

// Engine runs a plan to completion (or cancellation), committing each
// finished unit to the checkpoint. Tallies are bit-identical for every
// worker count and every interrupt/resume split: the unit is the atomic
// grain — a unit abandoned mid-range is simply rerun on resume — and the
// reduction over units is order-free.
type Engine struct {
	Plan *Plan
	// Workers is the verification goroutine count (<1 = 1).
	Workers int
	// CheckpointPath is where completed units commit ("" = no
	// checkpointing: an interrupted run saves nothing).
	CheckpointPath string
	// Cache is ignored: no lane consults it, and oracle.Cache is empty.
	//
	// Deprecated: every unit computes one oracle value per input and checks
	// all of the plan's schemes against it, so there is nothing to memoize.
	Cache *oracle.Cache
	// Log receives progress and resume lines (nil = silent).
	Log *obs.Logger
	// Metrics receives campaign gauges/counters (nil = obs.Default()).
	Metrics *obs.Registry
	// OnUnit, when set, observes every committed unit, after the checkpoint
	// write. Tests use it to cancel mid-campaign at a deterministic point;
	// callers can use it for custom progress.
	OnUnit func(UnitResult)
	// ProgressEvery throttles progress/ETA log lines (0 = none).
	ProgressEvery time.Duration

	// implOverride, when set, substitutes implementations on the
	// float32/random lanes (return nil to fall through). Tests inject
	// deliberately wrong kernels to exercise mismatch tallying, for one
	// scheme or for all.
	implOverride func(fn, scheme string) func(float32) float64
}

// ComboTotal aggregates one (function, scheme, lane)'s tally across the
// units of its (function, lane). First renders the failure at the lowest
// (unit, index) position — exactly what an uninterrupted serial sweep
// would report first.
type ComboTotal struct {
	Fn      string `json:"fn"`
	Scheme  string `json:"scheme"`
	Lane    string `json:"lane"`
	Checked int64  `json:"checked"`
	Wrong   int64  `json:"wrong"`
	First   string `json:"first,omitempty"`
}

// Totals is the campaign outcome so far: full when Interrupted is false,
// the committed prefix otherwise.
type Totals struct {
	UnitsTotal   int
	UnitsResumed int
	UnitsDone    int
	Checked      int64
	Wrong        int64
	Interrupted  bool
	Combos       []ComboTotal
	// OracleQueries counts the oracle values the units this run committed
	// computed: exactly one per verified input, on every lane, however many
	// schemes the plan checks against it. Nothing is memoized, so
	// OracleHits is 0 and OracleMisses equals OracleQueries; the split
	// remains for the report's cache section.
	OracleQueries            int64
	OracleHits, OracleMisses int64
}

// Run executes every unit not already committed to the checkpoint. On
// context cancellation it stops issuing units, lets in-flight workers
// abandon mid-range, commits what completed, and returns the partial totals
// with Interrupted set alongside ctx.Err(). A nil error means the campaign
// is complete.
func (e *Engine) Run(ctx context.Context) (*Totals, error) {
	plan := e.Plan
	workers := e.Workers
	if workers < 1 {
		workers = 1
	}

	done := map[int]UnitResult{}
	if e.CheckpointPath != "" {
		loaded, hash, quarantined, err := LoadCheckpoint(e.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if quarantined != "" {
			e.logf("checkpoint failed validation (%s); quarantined, restarting campaign", quarantined)
		}
		if len(loaded) > 0 {
			if hash != plan.Hash {
				return nil, fmt.Errorf("campaign: checkpoint %s belongs to a different campaign (plan %.12s, this run %.12s); finish it with its original flags or -restart",
					e.CheckpointPath, hash, plan.Hash)
			}
			for id, u := range loaded {
				if id < 0 || id >= len(plan.Units) {
					return nil, fmt.Errorf("campaign: checkpoint unit %d outside plan of %d units", id, len(plan.Units))
				}
				if len(u.Schemes) != len(plan.Cfg.Schemes) {
					return nil, fmt.Errorf("campaign: checkpoint unit %d has %d scheme tallies, plan has %d schemes",
						id, len(u.Schemes), len(plan.Cfg.Schemes))
				}
				done[id] = u
			}
		}
	}
	resumed := len(done)
	if resumed > 0 {
		e.logf("resuming campaign: %d of %d units already committed", resumed, len(plan.Units))
	}

	var randoms []float32
	for _, u := range plan.Units {
		if u.Lane == LaneRandom {
			randoms = drawRandoms(plan.Cfg.Seed, plan.Cfg.RandomN)
			break
		}
	}

	reg := e.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	unitsTotal := reg.Gauge("campaign/units_total")
	unitsDone := reg.Gauge("campaign/units_done")
	checkedC := reg.Counter("campaign/checked_total")
	wrongC := reg.Counter("campaign/wrong_total")
	unitNs := reg.Histogram("campaign/unit_ns")
	unitsTotal.Set(int64(len(plan.Units)))
	unitsDone.Set(int64(resumed))

	pending := make([]int, 0, len(plan.Units)-resumed)
	var pendingInputs uint64
	for i := range plan.Units {
		if _, ok := done[i]; !ok {
			pending = append(pending, i)
			pendingInputs += plan.Units[i].Inputs()
		}
	}
	e.logf("campaign: %d units pending (%d inputs), %d workers", len(pending), pendingInputs, workers)

	unitCh := make(chan int)
	resCh := make(chan UnitResult)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range unitCh {
				start := time.Now()
				res, completed := e.runUnit(ctx, &plan.Units[idx], randoms)
				if !completed {
					continue // abandoned mid-range; reruns on resume
				}
				unitNs.ObserveDuration(time.Since(start))
				resCh <- res
			}
		}()
	}
	go func() {
		defer close(unitCh)
		for _, idx := range pending {
			select {
			case unitCh <- idx:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(resCh)
	}()

	start := time.Now()
	lastProgress := start
	freshDone := 0
	var freshQueries int64
	var commitErr error
	for res := range resCh {
		done[res.ID] = res
		freshDone++
		freshQueries += res.Queries
		checkedC.Add(res.Checked())
		wrongC.Add(res.Wrong())
		unitsDone.Set(int64(len(done)))
		if e.CheckpointPath != "" && commitErr == nil {
			commitErr = SaveCheckpoint(e.CheckpointPath, plan.Hash, done)
		}
		if e.OnUnit != nil {
			e.OnUnit(res)
		}
		if e.ProgressEvery > 0 && time.Since(lastProgress) >= e.ProgressEvery {
			lastProgress = time.Now()
			e.logProgress(len(done), len(plan.Units), freshDone, time.Since(start))
		}
	}
	if commitErr != nil {
		return nil, fmt.Errorf("campaign: checkpoint commit: %w", commitErr)
	}

	totals := e.reduce(done, resumed)
	totals.OracleQueries = freshQueries
	totals.OracleMisses = freshQueries
	if len(done) < len(plan.Units) {
		totals.Interrupted = true
		if e.CheckpointPath != "" {
			e.logf("campaign interrupted: %d of %d units committed; rerun with the same flags to resume",
				len(done), len(plan.Units))
		} else {
			e.logf("campaign interrupted: %d of %d units done; no checkpoint, so no progress was saved",
				len(done), len(plan.Units))
		}
		return totals, ctx.Err()
	}
	return totals, nil
}

// reduce folds committed unit results into per-combo and overall totals,
// independent of commit order. Combos come in plan order (function,
// scheme, lane); a combo appears once any unit of its (function, lane) is
// committed.
func (e *Engine) reduce(done map[int]UnitResult, resumed int) *Totals {
	t := &Totals{
		UnitsTotal:   len(e.Plan.Units),
		UnitsResumed: resumed,
		UnitsDone:    len(done),
	}
	type fnLane struct {
		fn   string
		lane Lane
	}
	// The committed units of each (function, lane), in plan order.
	units := map[fnLane][]UnitResult{}
	for i := range e.Plan.Units {
		u := &e.Plan.Units[i]
		if res, ok := done[u.ID]; ok {
			k := fnLane{u.Fn, u.Lane}
			units[k] = append(units[k], res)
		}
	}
	cfg := &e.Plan.Cfg
	for _, fn := range cfg.Funcs {
		for si, scheme := range cfg.Schemes {
			for _, lane := range cfg.Lanes {
				rs := units[fnLane{fn, lane}]
				if len(rs) == 0 {
					continue
				}
				c := ComboTotal{Fn: fn, Scheme: scheme, Lane: lane.String()}
				// Units are in plan order, so the first one with a failure
				// holds the combo's first failure.
				for _, res := range rs {
					st := res.Schemes[si]
					c.Checked += st.Checked
					c.Wrong += st.Wrong
					if st.Wrong > 0 && c.First == "" {
						c.First = st.First
					}
				}
				t.Checked += c.Checked
				t.Wrong += c.Wrong
				t.Combos = append(t.Combos, c)
			}
		}
	}
	return t
}

// logf emits one campaign log line when a logger is attached.
func (e *Engine) logf(format string, args ...any) {
	if e.Log != nil {
		e.Log.Infof(format, args...)
	}
}

// logProgress renders done/total with an ETA extrapolated from this run's
// fresh unit rate (resumed units are free and must not skew it).
func (e *Engine) logProgress(done, total, fresh int, elapsed time.Duration) {
	if e.Log == nil || fresh == 0 {
		return
	}
	remaining := total - done
	eta := time.Duration(float64(elapsed) / float64(fresh) * float64(remaining)).Round(time.Second)
	e.Log.Infof("campaign: %d/%d units (%.1f%%), elapsed %s, ETA %s",
		done, total, 100*float64(done)/float64(total), elapsed.Round(time.Second), eta)
}

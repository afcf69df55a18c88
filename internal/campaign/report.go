package campaign

import (
	"encoding/json"
	"os"
	"time"

	"rlibm/internal/obs"
	"rlibm/internal/oracle"
)

// Report is the machine-readable outcome of one campaign run — what CI
// gates on (`wrong == 0`, `units_done == units_total`, `interrupted ==
// false`) and what an operator merges mentally across shards. It is written
// even for interrupted runs, so a fleet dashboard can track partial
// progress.
type Report struct {
	Tool      string `json:"tool"`
	CreatedAt string `json:"created_at"`
	Git       string `json:"git,omitempty"`
	// Mode names the preset that built the plan: smoke, full, or custom.
	Mode string `json:"mode"`
	// Seed is the random-lane seed — always recorded, so any failing
	// random-input run is reproducible from the report alone.
	Seed     int64             `json:"seed"`
	PlanHash string            `json:"plan_hash"`
	Config   map[string]string `json:"config,omitempty"`

	UnitsTotal   int  `json:"units_total"`
	UnitsDone    int  `json:"units_done"`
	UnitsResumed int  `json:"units_resumed"`
	Interrupted  bool `json:"interrupted"`

	Checked int64        `json:"checked"`
	Wrong   int64        `json:"wrong"`
	Combos  []ComboTotal `json:"combos"`

	Cache  *oracle.CacheReport `json:"cache"`
	WallMs float64             `json:"wall_ms"`
	// Metrics merges the run's registries (campaign gauges, oracle
	// instruments) for offline analysis.
	Metrics obs.Snapshot `json:"metrics"`
}

// NewReport starts a report for the given mode and plan.
func NewReport(mode string, plan *Plan) *Report {
	return &Report{
		Tool:     "rlibm-check",
		Git:      obs.GitDescribe(),
		Mode:     mode,
		Seed:     plan.Cfg.Seed,
		PlanHash: plan.Hash,
		Config:   map[string]string{},
	}
}

// SetTotals copies a run outcome, its oracle query counts included, into
// the report.
func (r *Report) SetTotals(t *Totals, wall time.Duration) {
	r.UnitsTotal = t.UnitsTotal
	r.UnitsDone = t.UnitsDone
	r.UnitsResumed = t.UnitsResumed
	r.Interrupted = t.Interrupted
	r.Checked = t.Checked
	r.Wrong = t.Wrong
	r.Combos = t.Combos
	r.Cache = oracle.NewCacheReport(t.OracleHits, t.OracleMisses)
	r.WallMs = float64(wall) / float64(time.Millisecond)
}

// AttachMetrics merges registry snapshots into the report.
func (r *Report) AttachMetrics(regs ...*obs.Registry) {
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		r.Metrics.Merge(reg.Snapshot())
	}
}

// WriteFile stamps CreatedAt and writes the indented report to path.
func (r *Report) WriteFile(path string) error {
	r.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

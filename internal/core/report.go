package core

import (
	"encoding/json"
	"io"
	"os"
	"time"

	"rlibm/internal/obs"
	"rlibm/internal/oracle"
)

// RunReport is the machine-readable outcome of one CLI run: what was asked
// for, what came out, and every metric the run recorded. The CLIs write it
// with -report; CI parses it to fail a build whose schemes did not all solve.
type RunReport struct {
	// Tool names the producing binary (rlibm-gen).
	Tool string `json:"tool"`
	// CreatedAt is the wall-clock completion time, RFC 3339.
	CreatedAt string `json:"created_at"`
	// Git is `git describe --always --dirty --tags` at run time ("" outside
	// a repository).
	Git string `json:"git,omitempty"`
	// Config echoes the CLI configuration that produced the run (flag names
	// to rendered values), so a report is self-describing.
	Config map[string]string `json:"config,omitempty"`
	// Results holds one entry per (function, scheme) attempted, in the order
	// they finished being recorded.
	Results []SchemeReport `json:"results"`
	// Cache carries the oracle values the run computed (as misses; hits
	// are 0) and the double-double rung's share of the roundings. CI prints
	// this section.
	Cache *oracle.CacheReport `json:"cache"`
	// Metrics is the merged snapshot of every registry the run recorded into
	// (the run's registry plus the process-default one the oracle uses).
	Metrics obs.Snapshot `json:"metrics"`
}

// SchemeReport summarizes one generation attempt.
type SchemeReport struct {
	Fn     string `json:"fn"`
	Scheme string `json:"scheme"`
	// Solved reports whether a correctly rounded implementation came out.
	Solved bool `json:"solved"`
	// Error is the failure cause when Solved is false.
	Error string `json:"error,omitempty"`

	Pieces   int   `json:"pieces,omitempty"`
	Degrees  []int `json:"degrees,omitempty"`
	Specials int   `json:"specials,omitempty"`

	Inputs          int   `json:"inputs,omitempty"`
	Constraints     int   `json:"constraints,omitempty"`
	LPSolves        int   `json:"lp_solves,omitempty"`
	LPPivots        int64 `json:"lp_pivots,omitempty"` // exact tableau pivots
	LPWarmResolves  int   `json:"lp_warm_resolves,omitempty"`
	LPColdSolves    int   `json:"lp_cold_solves,omitempty"`
	Iterations      int   `json:"iterations,omitempty"`
	ConstrainEvents int   `json:"constrain_events,omitempty"`

	// LPFloatPivots and LPExactFallbacks split the LP work between the
	// float simplex and the exact tableau, which runs when the float search
	// ends without a certified basis.
	LPFloatPivots    int64 `json:"lp_float_pivots,omitempty"`
	LPExactFallbacks int   `json:"lp_exact_fallbacks,omitempty"`

	CollectMs float64 `json:"collect_ms,omitempty"`
	SolveMs   float64 `json:"solve_ms,omitempty"`

	OracleHits   int64 `json:"oracle_hits,omitempty"`
	OracleMisses int64 `json:"oracle_misses,omitempty"`
}

// NewRunReport starts a report for the named tool, stamping the git
// revision. CreatedAt is stamped by WriteJSON so it reflects completion.
func NewRunReport(tool string) *RunReport {
	return &RunReport{Tool: tool, Git: obs.GitDescribe(), Config: map[string]string{}}
}

// AddResult records a solved scheme.
func (r *RunReport) AddResult(res *Result) {
	sr := SchemeReport{
		Fn:              res.Fn.String(),
		Scheme:          res.Scheme.String(),
		Solved:          true,
		Pieces:          len(res.Pieces),
		Specials:        len(res.Specials),
		Inputs:          res.Stats.Inputs,
		Constraints:     res.Stats.Constraints,
		LPSolves:        res.Stats.LPSolves,
		LPPivots:        res.Stats.LPPivots,
		LPWarmResolves:  res.Stats.WarmResolves,
		LPColdSolves:    res.Stats.ColdSolves,
		Iterations:      res.Stats.Iterations,
		ConstrainEvents: res.Stats.ConstrainEvents,
		CollectMs:       float64(res.Stats.CollectTime) / float64(time.Millisecond),
		SolveMs:         float64(res.Stats.SolveTime) / float64(time.Millisecond),
		OracleHits:      res.Stats.OracleHits,
		OracleMisses:    res.Stats.OracleMisses,

		LPFloatPivots:    res.Stats.LPFloatPivots,
		LPExactFallbacks: res.Stats.LPExactFallbacks,
	}
	for _, p := range res.Pieces {
		sr.Degrees = append(sr.Degrees, p.Coeffs.Trim().Degree())
	}
	r.Results = append(r.Results, sr)
}

// AddFailure records a (function, scheme) attempt that produced no
// implementation.
func (r *RunReport) AddFailure(fn, scheme string, err error) {
	sr := SchemeReport{Fn: fn, Scheme: scheme, Solved: false}
	if err != nil {
		sr.Error = err.Error()
	}
	r.Results = append(r.Results, sr)
}

// AttachMetrics merges snapshots of the given registries into the report
// (later registries win on name collisions, which cannot happen for the
// disjoint core/oracle namespaces).
func (r *RunReport) AttachMetrics(regs ...*obs.Registry) {
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		r.Metrics.Merge(reg.Snapshot())
	}
}

// Solved reports whether every recorded scheme solved (false for an empty
// report: a run that produced nothing did not succeed).
func (r *RunReport) Solved() bool {
	if len(r.Results) == 0 {
		return false
	}
	for _, sr := range r.Results {
		if !sr.Solved {
			return false
		}
	}
	return true
}

// WriteJSON stamps CreatedAt and writes the indented report.
func (r *RunReport) WriteJSON(w io.Writer) error {
	r.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (0644, truncating).
func (r *RunReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

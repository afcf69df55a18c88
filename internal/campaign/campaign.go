// Package campaign runs correctness sweeps as a resumable, shardable
// verification campaign at RLIBM-32 scale.
//
// The paper lineage's headline claim is correct rounding for all 2^32
// float32 inputs. A single uninterrupted process can prove that claim only
// with hours to spare; this package makes it a restartable background job
// instead. A campaign is a deterministic Plan: a work queue of float32
// bit-pattern range Units per (function, lane), where a lane is one way of
// driving the implementations against the Ziv oracle — the full
// widths-by-modes sweep of the double kernels, the bfloat16 sweep of the
// kernels rounded once to bfloat16, or a seeded random-input lane. A unit asks
// the oracle once per input and checks every scheme's kernel against that
// one value, keeping one tally per scheme. Each completed unit's tallies
// are committed to a versioned, CRC-validated checkpoint file
// (atomic-rename commits; a file that fails validation is quarantined and
// the campaign restarts rather than fails), so a killed sweep resumes
// exactly where it stopped: per-unit results are deterministic and their
// reduction is order-free, so an interrupted-and-resumed campaign reports
// bit-identical final tallies to an uninterrupted run, for any worker
// count.
//
// A campaign shards across machines as disjoint function slices, each with
// its own checkpoint directory.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"rlibm/internal/libm"
)

// PlanVersion is the campaign plan/checkpoint semantics version. Bump it
// whenever unit enumeration, lane semantics, the tally definition or the
// first-failure rendering changes: the version participates in the plan
// hash, so a stale checkpoint can never silently resume under different
// semantics.
const PlanVersion = 4

// Lane selects one verification drive of the implementations.
type Lane uint8

const (
	// LaneFloat32 sweeps float32 bit patterns through the double kernels and
	// checks every configured output width under all five IEEE rounding
	// modes against the oracle — the RLibm-ALL claim.
	LaneFloat32 Lane = iota
	// LaneBf16 sweeps bfloat16 bit patterns through the bfloat16 serving
	// kernels (each scheme's full kernel rounded once to bfloat16) and
	// checks the result against the oracle's RNE rounding, at 2^16 scale.
	LaneBf16
	// LaneRandom draws seeded uniform random float32 inputs and checks them
	// like LaneFloat32. The seed is part of the plan (and its hash), so a
	// failing random input is always reproducible.
	LaneRandom
	numLanes
)

func (l Lane) String() string {
	switch l {
	case LaneFloat32:
		return "float32"
	case LaneBf16:
		return "bf16"
	case LaneRandom:
		return "random"
	}
	return fmt.Sprintf("lane(%d)", uint8(l))
}

// ParseLane resolves a lane name.
func ParseLane(s string) (Lane, error) {
	for l := LaneFloat32; l < numLanes; l++ {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("campaign: unknown lane %q (valid: float32, bf16, random)", s)
}

// Range is a half-open range [Lo, Hi) of float32 bit patterns.
type Range struct {
	Lo, Hi uint64
}

// Config describes a campaign. Everything here participates in the plan
// hash except nothing — the whole Config defines the work, so any change
// starts a new campaign (Workers is an Engine property, not a Config one:
// tallies are identical for every worker count).
type Config struct {
	// Funcs and Schemes name the implementations to verify (libm names).
	Funcs   []string
	Schemes []string
	// Widths are the output widths of the float32/random lanes (10..32,
	// 8-bit exponent), each checked under all five IEEE rounding modes.
	Widths []int
	// Lanes selects the verification drives.
	Lanes []Lane
	// Stride is the float32-lane bit-pattern step (1 = exhaustive).
	Stride uint64
	// Ranges restricts the float32 lane to these bit-pattern ranges; empty
	// means the full [0, 2^32).
	Ranges []Range
	// RandomN is the number of seeded random inputs per function on the
	// random lane (the same sequence for every function and scheme).
	RandomN int
	// Seed seeds the random lane.
	Seed int64
	// UnitSize caps the number of inputs per unit — the resume grain and
	// the checkpoint commit grain. 0 selects DefaultUnitSize.
	UnitSize uint64
	// UseFuncs verifies the straight-line generated backend instead of the
	// data-driven one (float32/random lanes only; the bf16 lane always
	// rounds the generated straight-line kernels).
	UseFuncs bool
}

// DefaultUnitSize is the full-sweep resume grain: 2^22 inputs per unit puts
// a 2^32 exhaustive (function, lane) at 1024 units, so a kill loses at most
// ~0.1% of its progress while the checkpoint stays small. A unit checks
// every scheme, so with the four schemes it is as much kernel work as a
// 2^24-input unit of one scheme, and a stride sweep still splits into
// enough units to keep every worker busy.
const DefaultUnitSize = 1 << 22

// SmokeStride is the float32-lane step of the smoke slice: prime, so
// sampled mantissa bit patterns vary instead of repeating a power-of-two
// residue.
const SmokeStride = 4099

// SmokeUnitSize keeps smoke units at seconds of work each, so the resume
// grain is fine enough to demonstrate checkpointing inside CI.
const SmokeUnitSize = 4096

// SmokeRanges is the fixed deterministic sub-range set of the CI smoke
// slice: subnormals, the polynomial core domain, the overflow/log
// neighbourhoods, huge finite values, and negative mirrors.
var SmokeRanges = []Range{
	{0x00000000, 0x01000000}, // +0 through tiny normals
	{0x3e800000, 0x40800000}, // [0.25, 4): the reduced-domain core
	{0x42000000, 0x43000000}, // [32, 128): exp saturation neighbourhood
	{0x7f000000, 0x7f800000}, // huge finite
	{0x80000000, 0x81000000}, // negative subnormals
	{0xc2000000, 0xc3000000}, // (-128, -32]
}

// AllLanes lists every lane in plan order.
var AllLanes = []Lane{LaneFloat32, LaneBf16, LaneRandom}

// SmokeConfig is the CI-sized campaign: the fixed strided sub-ranges on the
// float32 lane, the full 2^16 bfloat16 lane, and a small random lane. It
// completes in minutes cold and seconds warm, deterministically for a fixed
// seed.
func SmokeConfig(funcs, schemes []string, widths []int, seed int64) Config {
	return Config{
		Funcs:    funcs,
		Schemes:  schemes,
		Widths:   widths,
		Lanes:    AllLanes,
		Stride:   SmokeStride,
		Ranges:   SmokeRanges,
		RandomN:  4096,
		Seed:     seed,
		UnitSize: SmokeUnitSize,
	}
}

// FullConfig is the RLIBM-32 campaign: every float32 bit pattern (stride 1,
// full range) on the float32 lane, the full bfloat16 lane, and a random
// lane on top.
func FullConfig(funcs, schemes []string, widths []int, seed int64, randomN int) Config {
	return Config{
		Funcs:   funcs,
		Schemes: schemes,
		Widths:  widths,
		Lanes:   AllLanes,
		Stride:  1,
		RandomN: randomN,
		Seed:    seed,
	}
}

// Unit is one work item: a contiguous index range of one lane of one
// function, checked for every scheme of the plan. Lo/Hi are float32 bit
// patterns on the float32 lane (stepped by Stride), bfloat16 bit patterns
// on the bf16 lane, and indices into the seeded random sequence on the
// random lane.
type Unit struct {
	ID     int
	Fn     string
	Lane   Lane
	Lo, Hi uint64
	Stride uint64
}

// Inputs returns the number of inputs the unit covers.
func (u *Unit) Inputs() uint64 {
	return (u.Hi - u.Lo + u.Stride - 1) / u.Stride
}

// Plan is a fully enumerated campaign: the deterministic unit list plus the
// hash that binds checkpoints to it.
type Plan struct {
	Cfg   Config
	Hash  string
	Units []Unit
}

// NewPlan validates cfg and enumerates its units in deterministic order
// (function, lane, range, offset). The same Config always produces
// the same plan and the same hash, on every machine.
func NewPlan(cfg Config) (*Plan, error) {
	if len(cfg.Funcs) == 0 || len(cfg.Schemes) == 0 {
		return nil, fmt.Errorf("campaign: empty function or scheme list")
	}
	// Tallies are kept per (function, scheme, lane), so each may appear
	// only once.
	if d, ok := duplicate(cfg.Funcs); ok {
		return nil, fmt.Errorf("campaign: function %q listed twice", d)
	}
	if d, ok := duplicate(cfg.Schemes); ok {
		return nil, fmt.Errorf("campaign: scheme %q listed twice", d)
	}
	if d, ok := duplicate(cfg.Lanes); ok {
		return nil, fmt.Errorf("campaign: lane %s listed twice", d)
	}
	for _, fn := range cfg.Funcs {
		if !knownFunc(fn) {
			return nil, fmt.Errorf("campaign: unknown function %q", fn)
		}
	}
	for _, s := range cfg.Schemes {
		if _, err := parseScheme(s); err != nil {
			return nil, err
		}
	}
	if len(cfg.Lanes) == 0 {
		return nil, fmt.Errorf("campaign: no lanes selected")
	}
	needWidths := false
	for _, l := range cfg.Lanes {
		if l >= numLanes {
			return nil, fmt.Errorf("campaign: invalid lane %d", l)
		}
		if l == LaneFloat32 || l == LaneRandom {
			needWidths = true
		}
	}
	if needWidths && len(cfg.Widths) == 0 {
		return nil, fmt.Errorf("campaign: float32/random lanes need output widths")
	}
	for _, w := range cfg.Widths {
		if w < 10 || w > 32 {
			return nil, fmt.Errorf("campaign: width %d outside [10, 32]", w)
		}
	}
	if cfg.Stride == 0 {
		cfg.Stride = 1
	}
	ranges := cfg.Ranges
	if len(ranges) == 0 {
		ranges = []Range{{0, 1 << 32}}
	}
	for _, r := range ranges {
		if r.Lo >= r.Hi || r.Hi > 1<<32 {
			return nil, fmt.Errorf("campaign: bad range [%#x, %#x)", r.Lo, r.Hi)
		}
	}
	unit := cfg.UnitSize
	if unit == 0 {
		unit = DefaultUnitSize
	}

	p := &Plan{Cfg: cfg}
	add := func(fn string, lane Lane, lo, hi, stride uint64) {
		p.Units = append(p.Units, Unit{
			ID: len(p.Units), Fn: fn, Lane: lane,
			Lo: lo, Hi: hi, Stride: stride,
		})
	}
	for _, fn := range cfg.Funcs {
		for _, lane := range cfg.Lanes {
			switch lane {
			case LaneFloat32:
				// Unit boundaries fall on stride multiples from each
				// range's base, so splitting a range into units visits
				// exactly the inputs an unsplit sweep would.
				span := unit * cfg.Stride
				for _, r := range ranges {
					for lo := r.Lo; lo < r.Hi; lo += span {
						add(fn, lane, lo, min(lo+span, r.Hi), cfg.Stride)
					}
				}
			case LaneBf16:
				for lo := uint64(0); lo < 1<<16; lo += unit {
					add(fn, lane, lo, min(lo+unit, 1<<16), 1)
				}
			case LaneRandom:
				for lo := uint64(0); lo < uint64(cfg.RandomN); lo += unit {
					add(fn, lane, lo, min(lo+unit, uint64(cfg.RandomN)), 1)
				}
			}
		}
	}
	if len(p.Units) == 0 {
		return nil, fmt.Errorf("campaign: plan has no units")
	}
	p.Hash = hashConfig(cfg)
	return p, nil
}

// hashConfig derives the plan hash binding checkpoints to a campaign: a
// SHA-256 over a canonical rendering of the plan semantics version and
// every Config field.
func hashConfig(cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d", PlanVersion)
	fmt.Fprintf(&b, "|funcs=%s", strings.Join(cfg.Funcs, ","))
	fmt.Fprintf(&b, "|schemes=%s", strings.Join(cfg.Schemes, ","))
	fmt.Fprintf(&b, "|widths=%v", cfg.Widths)
	for _, l := range cfg.Lanes {
		fmt.Fprintf(&b, "|lane=%s", l)
	}
	fmt.Fprintf(&b, "|stride=%d", cfg.Stride)
	for _, r := range cfg.Ranges {
		fmt.Fprintf(&b, "|range=%x:%x", r.Lo, r.Hi)
	}
	fmt.Fprintf(&b, "|random=%d|seed=%d|unit=%d|usefuncs=%t",
		cfg.RandomN, cfg.Seed, cfg.UnitSize, cfg.UseFuncs)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// duplicate returns the first element of xs that occurs twice.
func duplicate[T comparable](xs []T) (T, bool) {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return x, true
		}
		seen[x] = true
	}
	var zero T
	return zero, false
}

// knownFunc reports whether the library implements fn.
func knownFunc(fn string) bool {
	for _, f := range libm.Funcs {
		if f.Name == fn {
			return true
		}
	}
	return false
}

// parseScheme resolves a libm scheme from its canonical name.
func parseScheme(s string) (libm.Scheme, error) {
	for _, sc := range libm.Schemes {
		if sc.String() == s {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("campaign: unknown scheme %q", s)
}

// AllFuncNames and AllSchemeNames list the library surface in canonical
// order, for CLIs resolving "all".
func AllFuncNames() []string {
	names := make([]string, 0, len(libm.Funcs))
	for _, f := range libm.Funcs {
		names = append(names, f.Name)
	}
	return names
}

func AllSchemeNames() []string {
	names := make([]string, 0, len(libm.Schemes))
	for _, s := range libm.Schemes {
		names = append(names, s.String())
	}
	return names
}

package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rlibm/internal/fp"
	"rlibm/internal/obs"
	"rlibm/internal/oracle"
)

// testConfig is a small deterministic campaign: two functions, two schemes,
// two widths, a 16Ki-pattern strided float32 slice plus a random lane, cut
// into many units so interrupt/resume splits have room to differ.
func testConfig() Config {
	return Config{
		Funcs:    []string{"exp2", "log2"},
		Schemes:  []string{"rlibm", "rlibm-estrin-fma"},
		Widths:   []int{10, 16},
		Lanes:    []Lane{LaneFloat32, LaneRandom},
		Stride:   64,
		Ranges:   []Range{{0x3f000000, 0x3f004000}},
		RandomN:  128,
		Seed:     42,
		UnitSize: 32,
	}
}

func TestPlanDeterministic(t *testing.T) {
	a, err := NewPlan(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("same config hashed %s vs %s", a.Hash, b.Hash)
	}
	if !reflect.DeepEqual(a.Units, b.Units) {
		t.Fatal("same config enumerated different units")
	}
	cfg := testConfig()
	cfg.Seed++
	c, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash == a.Hash {
		t.Fatal("different seed produced the same plan hash")
	}
	// Unit boundaries fall on stride multiples, so a split sweep visits
	// exactly the unsplit input set.
	var inputs uint64
	for _, u := range a.Units {
		if u.Lane == LaneFloat32 && (u.Lo-0x3f000000)%(64) != 0 {
			t.Fatalf("unit %d starts off-stride at %#x", u.ID, u.Lo)
		}
		inputs += u.Inputs()
	}
	perCombo := uint64(0x4000/64 + 128) // strided range + random lane
	if want := perCombo * 4; inputs != want {
		t.Fatalf("plan covers %d inputs, want %d", inputs, want)
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Funcs = nil },
		func(c *Config) { c.Funcs = []string{"sinh"} },
		func(c *Config) { c.Schemes = []string{"rlibm-magic"} },
		func(c *Config) { c.Widths = []int{9} },
		func(c *Config) { c.Widths = nil },
		func(c *Config) { c.Lanes = nil },
		func(c *Config) { c.Ranges = []Range{{8, 4}} },
		func(c *Config) { c.Ranges = []Range{{0, 1<<32 + 1}} },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("mutation %d: NewPlan accepted an invalid config", i)
		}
	}
	// A bf16-only campaign needs no widths.
	cfg := testConfig()
	cfg.Lanes = []Lane{LaneBf16}
	cfg.Widths = nil
	if _, err := NewPlan(cfg); err != nil {
		t.Errorf("bf16-only plan without widths rejected: %v", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), CheckpointFile)
	units := map[int]UnitResult{
		0: {ID: 0, Checked: 320, Wrong: 0},
		3: {ID: 3, Checked: 320, Wrong: 2, FirstIdx: 17, First: "exp2(1.5) w=10 RNE: got 2 want 3"},
	}
	if err := SaveCheckpoint(path, "deadbeef", units); err != nil {
		t.Fatal(err)
	}
	got, hash, quarantined, err := LoadCheckpoint(path)
	if err != nil || quarantined != "" {
		t.Fatalf("load: err=%v quarantined=%q", err, quarantined)
	}
	if hash != "deadbeef" {
		t.Fatalf("plan hash %q, want deadbeef", hash)
	}
	if !reflect.DeepEqual(got, units) {
		t.Fatalf("round trip: got %+v, want %+v", got, units)
	}
	// Identical states commit byte-identically (map order must not leak).
	a, _ := os.ReadFile(path)
	if err := SaveCheckpoint(path, "deadbeef", units); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if string(a) != string(b) {
		t.Fatal("same state serialized differently across commits")
	}
}

func TestCheckpointMissingIsFresh(t *testing.T) {
	units, hash, quarantined, err := LoadCheckpoint(filepath.Join(t.TempDir(), CheckpointFile))
	if err != nil || units != nil || hash != "" || quarantined != "" {
		t.Fatalf("missing checkpoint: %v %q %q %v", units, hash, quarantined, err)
	}
}

// TestCheckpointCorruptQuarantines: every corruption (truncation, payload
// bit flip, version skew) quarantines the file and restarts fresh instead
// of resuming from garbage.
func TestCheckpointCorruptQuarantines(t *testing.T) {
	dir := t.TempDir()
	units := map[int]UnitResult{1: {ID: 1, Checked: 10}}
	corruptions := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"payload-flip", func(b []byte) []byte { b[20] ^= 0x08; return b }},
		{"version-skew", func(b []byte) []byte { b[4] = 99; return b }},
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }},
	}
	for _, c := range corruptions {
		path := filepath.Join(dir, c.name+".rlcc")
		if err := SaveCheckpoint(path, "h", units); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, c.mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		got, hash, quarantined, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: load errored: %v", c.name, err)
		}
		if got != nil || hash != "" || quarantined == "" {
			t.Fatalf("%s: got units=%v hash=%q quarantined=%q, want fresh+quarantined", c.name, got, hash, quarantined)
		}
		if _, err := os.Stat(path + quarantineSuffix); err != nil {
			t.Fatalf("%s: no quarantined copy: %v", c.name, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupt checkpoint still in place", c.name)
		}
	}
}

// TestEngineRejectsForeignCheckpoint: a checkpoint from a different plan
// must stop the run with an explicit error, not silently mix tallies.
func TestEngineRejectsForeignCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), CheckpointFile)
	if err := SaveCheckpoint(path, "someotherplan", map[int]UnitResult{0: {ID: 0}}); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Plan: plan, CheckpointPath: path, Cache: oracle.NewCache(0)}
	if _, err := e.Run(context.Background()); err == nil {
		t.Fatal("engine resumed from a foreign checkpoint")
	}
}

// TestReportCacheSection: a small campaign's report carries the cache
// section. With no Cache every oracle query of the run is computed; with
// one, the Cache's counters split the same queries. On the float32 lane one
// round-to-odd query settles all of an input's (width, mode) checks, so
// the run asks for fewer queries than it counts checks. The random lane
// expands a fixed sample of its inputs to every target, so it asks for more
// than one query per input but still fewer than one per check.
func TestReportCacheSection(t *testing.T) {
	lanePlan := func(lanes ...Lane) *Plan {
		cfg := testConfig()
		cfg.Lanes = lanes
		plan, err := NewPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	mixed := lanePlan(LaneFloat32, LaneRandom)
	float32Only := lanePlan(LaneFloat32)
	randomOnly := lanePlan(LaneRandom)
	for _, plan := range []*Plan{mixed, float32Only, randomOnly} {
		for _, cache := range []*oracle.Cache{nil, oracle.NewCache(0)} {
			totals := runToCompletion(t, plan, cache, 2, "", false)
			rep := NewReport("custom", plan)
			rep.SetTotals(totals, time.Second)
			c := rep.Cache
			if c == nil {
				t.Fatal("report has no cache section")
			}
			if c.OracleMisses <= 0 || c.OracleHits+c.OracleMisses != totals.OracleQueries {
				t.Errorf("cache %v: hits %d + misses %d, want %d queries with misses > 0",
					cache != nil, c.OracleHits, c.OracleMisses, totals.OracleQueries)
			}
			if cache == nil && c.OracleHits != 0 {
				t.Errorf("no cache but %d hits", c.OracleHits)
			}
			if plan == float32Only && totals.OracleQueries >= totals.Checked {
				t.Errorf("float32 lane: %d queries for %d checks, want fewer", totals.OracleQueries, totals.Checked)
			}
			inputs := totals.Checked / int64(len(plan.Cfg.Widths)*len(fp.StandardModes))
			if plan == randomOnly && (totals.OracleQueries <= inputs || totals.OracleQueries >= totals.Checked) {
				t.Errorf("random lane: %d queries for %d inputs and %d checks, want between", totals.OracleQueries, inputs, totals.Checked)
			}
		}
	}
}

// TestCustomPlanMatchesSweepCounts pins rlibm-check's default plan shape —
// every lane, a stride over [0, 2^32) plus the seeded random inputs — to
// the counts of the stand-alone sweep rlibm-check ran before it drove this
// engine, for `-func exp2 -scheme rlibm -stride 1048576 -seed 7` at the
// default widths: that sweep's checked and wrong totals are the float32
// and random lanes' sums. The 100000-input case reaches random input 91114,
// the known w=32 exp2 miss, so wrong counting and the first-failure
// rendering are pinned too. Interpreter and generated kernels agree.
func TestCustomPlanMatchesSweepCounts(t *testing.T) {
	cases := []struct {
		randomN        int
		checked, wrong int64
		first          string
	}{
		{2000, 182130, 0, ""},
		{100000, 3110550, 3, "exp2(-4.6942086) 0xc09636f5 w=32 rtz: got 0.03862801194190979 want 0.03862801566720009"},
	}
	for _, c := range cases {
		for _, useFuncs := range []bool{false, true} {
			plan, err := NewPlan(Config{
				Funcs: []string{"exp2"}, Schemes: []string{"rlibm"},
				Widths: []int{10, 16, 19, 24, 27, 32}, Lanes: AllLanes,
				Stride: 1 << 20, RandomN: c.randomN, Seed: 7, UseFuncs: useFuncs,
			})
			if err != nil {
				t.Fatal(err)
			}
			totals := runToCompletion(t, plan, nil, 2, "", false)
			var checked, wrong int64
			first := ""
			for _, combo := range totals.Combos {
				if combo.Lane == "bf16" {
					continue
				}
				checked += combo.Checked
				wrong += combo.Wrong
				if combo.First != "" {
					first = combo.First
				}
			}
			if checked != c.checked || wrong != c.wrong || first != c.first {
				t.Errorf("random %d, funcs %v: checked %d wrong %d first %q; want %d, %d, %q",
					c.randomN, useFuncs, checked, wrong, first, c.checked, c.wrong, c.first)
			}
		}
	}
}

// TestInterruptWithoutCheckpoint: a cancelled run with no checkpoint
// reports Interrupted and says that nothing was saved, instead of the
// resume hint a checkpointed run logs.
func TestInterruptWithoutCheckpoint(t *testing.T) {
	plan, err := NewPlan(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, checkpoint := range []string{"", filepath.Join(t.TempDir(), CheckpointFile)} {
		var log bytes.Buffer
		ctx, cancel := context.WithCancel(context.Background())
		e := &Engine{Plan: plan, Workers: 2, CheckpointPath: checkpoint, Log: obs.NewLogger(&log, obs.LevelInfo)}
		e.OnUnit = func(UnitResult) { cancel() }
		totals, err := e.Run(ctx)
		cancel()
		if err == nil || totals == nil || !totals.Interrupted {
			t.Fatalf("checkpoint %q: cancelled run not interrupted (err=%v, totals=%+v)", checkpoint, err, totals)
		}
		resumeHint := strings.Contains(log.String(), "resume")
		if resumeHint != (checkpoint != "") {
			t.Errorf("checkpoint %q: resume hint logged = %v:\n%s", checkpoint, resumeHint, log.String())
		}
		if checkpoint == "" && !strings.Contains(log.String(), "no progress was saved") {
			t.Errorf("no checkpoint: log does not say that nothing was saved:\n%s", log.String())
		}
	}
}

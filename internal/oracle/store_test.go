package oracle

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rlibm/internal/fp"
)

// fillStore computes a few oracle values through a store-backed cache and
// seals them to disk.
func fillStore(t *testing.T, dir string, fn Func, xs []float64) map[float64]float64 {
	t.Helper()
	st, err := OpenStore(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	c.AttachStore(st)
	want := map[float64]float64{}
	for _, x := range xs {
		want[x] = c.Correct(fn, x, fp.FP34, fp.RTO)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestStoreRoundTrip: values computed in one store session come back from
// disk in the next, bit for bit, without recomputation.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	xs := []float64{0.5, 1.25, -0.75, 3.5, 0.1}
	want := fillStore(t, dir, Exp, xs)
	if len(segFiles(t, dir)) == 0 {
		t.Fatal("no segment written")
	}

	st, err := OpenStore(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Stats().LoadedEntries; got != len(xs) {
		t.Fatalf("loaded %d entries, want %d", got, len(xs))
	}
	c := NewCache(0)
	c.AttachStore(st)
	for _, x := range xs {
		y, ok := c.Lookup(Exp, x, fp.FP34, fp.RTO)
		if !ok {
			t.Fatalf("Lookup(exp, %g) missed after reload", x)
		}
		if math.Float64bits(y) != math.Float64bits(want[x]) {
			t.Errorf("exp(%g): reloaded %g, want %g", x, y, want[x])
		}
	}
	hits, misses := c.Stats()
	if misses != 0 {
		t.Errorf("warm cache reported %d misses (hits %d), want 0", misses, hits)
	}
}

// TestStoreWarmRunWritesNothing: a fully warm run must not grow the
// directory with empty segments.
func TestStoreWarmRunWritesNothing(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, Exp2, []float64{0.5, 0.75})
	before := len(segFiles(t, dir))

	st, err := OpenStore(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	c.AttachStore(st)
	c.Correct(Exp2, 0.5, fp.FP34, fp.RTO)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if after := len(segFiles(t, dir)); after != before {
		t.Errorf("warm run changed segment count: %d -> %d", before, after)
	}
}

// TestStoreReadOnly: read-only stores serve entries but never write.
func TestStoreReadOnly(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, Log, []float64{2, 3})
	before := len(segFiles(t, dir))

	st, err := OpenStore(dir, StoreOptions{ReadOnly: true, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	c.AttachStore(st)
	if _, ok := c.Lookup(Log, 2, fp.FP34, fp.RTO); !ok {
		t.Error("read-only store did not serve a stored entry")
	}
	c.Correct(Log, 5, fp.FP34, fp.RTO) // fresh value: must not persist
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if after := len(segFiles(t, dir)); after != before {
		t.Errorf("read-only run changed segment count: %d -> %d", before, after)
	}
	if n := st.Stats().AppendedEntries; n != 0 {
		t.Errorf("read-only store recorded %d appends, want 0", n)
	}
}

// corrupt applies mutate to the single segment in dir.
func corrupt(t *testing.T, dir string, mutate func([]byte) []byte) string {
	t.Helper()
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want exactly one segment, have %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return segs[0]
}

// TestStoreQuarantine: every corruption mode — flipped payload byte,
// truncation, bad magic, future version — quarantines the segment and the
// cache recomputes correct values instead of serving garbage.
func TestStoreQuarantine(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped-value-byte", func(d []byte) []byte {
			d[len(d)/2] ^= 0xFF // inside the records: CRC catches it
			return d
		}},
		{"truncated", func(d []byte) []byte { return d[:len(d)-7] }},
		{"bad-magic", func(d []byte) []byte { d[0] = 'X'; return d }},
		{"future-version", func(d []byte) []byte { d[4] = 0xEE; return d }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			xs := []float64{0.5, 1.5, 2.5}
			want := fillStore(t, dir, Log2, xs)
			corrupt(t, dir, tc.mutate)

			st, err := OpenStore(dir, StoreOptions{NoSync: true})
			if err != nil {
				t.Fatalf("corrupt segment failed the open: %v", err)
			}
			stats := st.Stats()
			if stats.Quarantined != 1 {
				t.Errorf("quarantined %d segments, want 1", stats.Quarantined)
			}
			if stats.LoadedEntries != 0 {
				t.Errorf("loaded %d entries from a corrupt segment, want 0", stats.LoadedEntries)
			}
			q, err := filepath.Glob(filepath.Join(dir, "*"+quarantineSuffix+"*"))
			if err != nil || len(q) != 1 {
				t.Errorf("quarantine file missing: %v (%v)", q, err)
			}
			c := NewCache(0)
			c.AttachStore(st)
			for _, x := range xs {
				if got := c.Correct(Log2, x, fp.FP34, fp.RTO); math.Float64bits(got) != math.Float64bits(want[x]) {
					t.Errorf("log2(%g) after quarantine: got %g, want %g", x, got, want[x])
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			// The next open must not trip over the quarantined file and must
			// see the recomputed entries.
			st2, err := OpenStore(dir, StoreOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := st2.Stats().LoadedEntries; got != len(xs) {
				t.Errorf("reopen after quarantine loaded %d entries, want %d", got, len(xs))
			}
			st2.Close()
		})
	}
}

// TestStoreCompaction: once the directory accumulates more than the
// threshold's worth of segments, open rewrites them into one and loses no
// entries.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	want := map[float64]float64{}
	xs := []float64{0.25, 0.5, 0.75, 1.5, 2.5, 3.5}
	for _, x := range xs { // one segment per run
		for k, v := range fillStore(t, dir, Exp, []float64{x}) {
			want[k] = v
		}
	}
	if n := len(segFiles(t, dir)); n != len(xs) {
		t.Fatalf("have %d segments, want %d", n, len(xs))
	}

	st, err := OpenStore(dir, StoreOptions{NoSync: true, CompactThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Stats().Compacted {
		t.Error("open above the threshold did not compact")
	}
	if n := len(segFiles(t, dir)); n != 1 {
		t.Errorf("after compaction: %d segments, want 1", n)
	}
	c := NewCache(0)
	c.AttachStore(st)
	for x, y := range want {
		got, ok := c.Lookup(Exp, x, fp.FP34, fp.RTO)
		if !ok || math.Float64bits(got) != math.Float64bits(y) {
			t.Errorf("exp(%g) after compaction: got %g (ok=%v), want %g", x, got, ok, y)
		}
	}
}

// TestClearCacheDir removes cache artifacts but leaves foreign files alone.
func TestClearCacheDir(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, Exp, []float64{0.5})
	corrupt(t, dir, func(d []byte) []byte { d[0] = 'X'; return d })
	st, err := OpenStore(dir, StoreOptions{NoSync: true}) // quarantines
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	foreign := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(foreign, []byte("not a cache file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ClearCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "README.txt" {
			t.Errorf("ClearCacheDir left cache artifact %s", e.Name())
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("ClearCacheDir removed a foreign file: %v", err)
	}
	if err := ClearCacheDir(filepath.Join(dir, "does-not-exist")); err != nil {
		t.Errorf("ClearCacheDir on a missing dir: %v", err)
	}
}

// TestStoreVersionInFilename guards the CI cache key contract: the workflow
// keys its cross-run cache on StoreVersion, so a format change must come
// with a version bump (this test is a tripwire for reviewers, not a proof).
func TestStoreVersionQuarantinesOldFormat(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, Exp2, []float64{1.5})
	corrupt(t, dir, func(d []byte) []byte { d[4] = StoreVersion + 1; return d })
	st, err := OpenStore(dir, StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Stats().Quarantined != 1 || st.Stats().LoadedEntries != 0 {
		t.Errorf("version-mismatched segment not quarantined: %+v", st.Stats())
	}
}

// TestLadder: the precision ladder starts at the base rung, climbs to the
// terminal precision after an escalation, and decays on easy inputs —
// without ever changing a rounded result.
func TestLadder(t *testing.T) {
	ResetLadders()
	defer ResetLadders()
	if got := ladderStart(Exp); got != basePrec {
		t.Fatalf("cold ladder start %d, want %d", got, basePrec)
	}
	ladderRecord(Exp, 640, 3)
	if got := ladderStart(Exp); got != 640 {
		t.Errorf("after escalation to 640: start %d, want 640", got)
	}
	ladderRecord(Exp, 640, 0)
	if got := ladderStart(Exp); got != 320 {
		t.Errorf("after one easy input: start %d, want 320", got)
	}
	ladderRecord(Exp, 1<<20, 5)
	if got := ladderStart(Exp); got != ladderMaxStart {
		t.Errorf("ladder start %d not capped at %d", got, ladderMaxStart)
	}

	// Result invariance: the same input rounds identically from a cold and
	// a hot ladder.
	ResetLadders()
	cold := compute(Exp, 0.7243156, false).Round(fp.FP34, fp.RTO)
	ladders[Exp].Store(1024)
	hot := compute(Exp, 0.7243156, false).Round(fp.FP34, fp.RTO)
	if math.Float64bits(cold) != math.Float64bits(hot) {
		t.Errorf("ladder changed a result: cold %g, hot %g", cold, hot)
	}
}

// TestStoreRejectsEmptyDir: the empty string is a configuration error, not
// a cache in the working directory.
func TestStoreRejectsEmptyDir(t *testing.T) {
	if _, err := OpenStore("", StoreOptions{}); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("OpenStore(\"\") = %v, want empty-directory error", err)
	}
}

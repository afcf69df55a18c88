package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rlibm/internal/obs"
)

// oldCheckpoints are partial checkpoints of testConfig's campaign written
// under earlier semantics: plan version 2 (checkpoint layout 1, one unit
// per (function, scheme)), cut after 11 units, and plan version 3
// (checkpoint layout 2, whose bf16 lane checked the retired prefix
// kernels), cut after 12.
var oldCheckpoints = []string{
	"testdata/checkpoint-plan-v2.rlcc",
	"testdata/checkpoint-plan-v3.rlcc",
}

// TestOldCheckpointQuarantined: an old-layout checkpoint is quarantined,
// never resumed. The campaign starts over and reports what a fresh run
// reports, and the old file is kept aside byte for byte.
func TestOldCheckpointQuarantined(t *testing.T) {
	for _, path := range oldCheckpoints {
		t.Run(filepath.Base(path), func(t *testing.T) { testOldCheckpointQuarantined(t, path) })
	}
}

func testOldCheckpointQuarantined(t *testing.T, oldCheckpoint string) {
	old, err := os.ReadFile(oldCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), CheckpointFile)
	if err := os.WriteFile(ckpt, old, 0o644); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	e := &Engine{Plan: plan, Workers: 2, CheckpointPath: ckpt, Log: obs.NewLogger(&log, obs.LevelInfo)}
	totals, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if totals.UnitsResumed != 0 || totals.UnitsDone != len(plan.Units) {
		t.Fatalf("resumed %d units, done %d of %d; want a fresh complete run",
			totals.UnitsResumed, totals.UnitsDone, len(plan.Units))
	}
	if !strings.Contains(log.String(), "quarantined") {
		t.Errorf("log does not report the quarantine:\n%s", log.String())
	}
	kept, err := os.ReadFile(ckpt + quarantineSuffix)
	if err != nil || !bytes.Equal(kept, old) {
		t.Fatalf("old checkpoint not kept aside unchanged (err=%v)", err)
	}
	fresh := runToCompletion(t, plan, 2, "", false)
	if totals.Checked != fresh.Checked || !reflect.DeepEqual(totals.Combos, fresh.Combos) {
		t.Fatalf("run after quarantine diverged from a fresh run:\n%+v\n%+v", totals.Combos, fresh.Combos)
	}
}

// TestOldPayloadRefused: an old payload re-framed under the current
// checkpoint version passes validation, but its plan hash binds it to the
// old plan, so the engine refuses it and leaves it in place.
func TestOldPayloadRefused(t *testing.T) {
	for _, path := range oldCheckpoints {
		t.Run(filepath.Base(path), func(t *testing.T) { testOldPayloadRefused(t, path) })
	}
}

func testOldPayloadRefused(t *testing.T, oldCheckpoint string) {
	old, err := os.ReadFile(oldCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	payload := old[checkpointHeaderLen : len(old)-checkpointFooterLen]
	buf := append([]byte(checkpointMagic), old[4:checkpointHeaderLen]...)
	binary.LittleEndian.PutUint32(buf[4:8], CheckpointVersion)
	buf = append(buf, payload...)
	buf = append(buf, checkpointEndMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	ckpt := filepath.Join(t.TempDir(), CheckpointFile)
	if err := os.WriteFile(ckpt, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Plan: plan, CheckpointPath: ckpt}
	if _, err := e.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("engine accepted the old payload (err=%v)", err)
	}
	if kept, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(kept, buf) {
		t.Fatalf("refused checkpoint was changed (err=%v)", err)
	}
}

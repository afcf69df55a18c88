package campaign

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// The checkpoint file records every completed unit's tally, bound to the
// plan by its hash. Layout (integers little-endian), validated end to end
// (magics, length and CRC) on every load:
//
//	header:  magic "RLCC" | version uint32 | payloadLen uint64
//	payload: JSON {plan_hash, units:[{id, schemes:[{checked, wrong, first_idx, first}]}]}
//	trailer: magic "RLCE" | crc32(IEEE, payload)
//
// Commits are atomic: the new image is written to a sibling .tmp file,
// fsynced, and renamed over the old checkpoint, so a kill at any instant
// leaves either the previous commit or the new one — never a torn file.
// Anything that fails validation is renamed to *.quarantined and the
// campaign restarts from scratch: a corrupt checkpoint costs recomputation,
// never a wrong tally.
const (
	checkpointMagic     = "RLCC"
	checkpointEndMagic  = "RLCE"
	checkpointHeaderLen = 16
	checkpointFooterLen = 8
	// CheckpointVersion gates the checkpoint layout: a file of any other
	// version fails validation and is quarantined. Versions 2 and 3 hold
	// one tally per scheme in each unit; version 1 files, written when a
	// unit covered a single scheme, and version 2 files, whose bf16 tallies
	// checked the retired prefix kernels (plan version 3), are quarantined,
	// never resumed.
	CheckpointVersion = 3
	// CheckpointFile is the file name inside a campaign state directory.
	CheckpointFile = "checkpoint.rlcc"

	quarantineSuffix = ".quarantined"
)

// UnitResult is one completed unit's tallies, one per scheme of the plan
// in Config.Schemes order.
type UnitResult struct {
	ID      int           `json:"id"`
	Schemes []SchemeTally `json:"schemes"`
	// Queries counts the oracle values the unit computed: one per verified
	// input, shared by every scheme. It describes this run's work, not the
	// tally, so it is not checkpointed: a resumed unit reads 0.
	Queries int64 `json:"-"`
}

// SchemeTally is one scheme's tally over a unit. Checked counts checks
// (inputs x widths x modes on the widths lanes), Wrong the mismatches;
// FirstIdx/First pin the unit-local index and rendering of the first
// failure, so the campaign's overall first failure is reconstructible from
// any commit order.
type SchemeTally struct {
	Checked  int64  `json:"checked"`
	Wrong    int64  `json:"wrong"`
	FirstIdx uint64 `json:"first_idx,omitempty"`
	First    string `json:"first,omitempty"`
}

// Checked and Wrong sum the unit's tallies over its schemes.
func (r *UnitResult) Checked() int64 {
	var n int64
	for _, s := range r.Schemes {
		n += s.Checked
	}
	return n
}

func (r *UnitResult) Wrong() int64 {
	var n int64
	for _, s := range r.Schemes {
		n += s.Wrong
	}
	return n
}

type checkpointPayload struct {
	PlanHash string       `json:"plan_hash"`
	Units    []UnitResult `json:"units"`
}

// SaveCheckpoint atomically commits the completed-unit set for the plan
// hash to path. Units are serialized in ID order, so identical states
// produce identical bytes.
func SaveCheckpoint(path, planHash string, units map[int]UnitResult) error {
	list := make([]UnitResult, 0, len(units))
	for _, u := range units {
		list = append(list, u)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	payload, err := json.Marshal(checkpointPayload{PlanHash: planHash, Units: list})
	if err != nil {
		return err
	}

	buf := make([]byte, 0, checkpointHeaderLen+len(payload)+checkpointFooterLen)
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, CheckpointVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = append(buf, checkpointEndMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads a checkpoint. A missing file is a fresh campaign
// (nil map, no hash, no error). A file that fails validation — short file,
// bad magic, version or length mismatch, CRC failure, malformed payload —
// is renamed aside to *.quarantined and also reported as fresh, with the
// cause returned for logging: resuming from a corrupt checkpoint must never
// produce a wrong tally, so the campaign recomputes instead.
func LoadCheckpoint(path string) (units map[int]UnitResult, planHash, quarantined string, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, "", "", nil
	}
	if err != nil {
		return nil, "", "", err
	}
	payload, verr := validateCheckpoint(data)
	if verr != nil {
		dst := quarantinePath(path)
		if rerr := os.Rename(path, dst); rerr != nil {
			return nil, "", "", fmt.Errorf("campaign: quarantining corrupt checkpoint: %w", rerr)
		}
		return nil, "", verr.Error(), nil
	}
	units = make(map[int]UnitResult, len(payload.Units))
	for _, u := range payload.Units {
		units[u.ID] = u
	}
	return units, payload.PlanHash, "", nil
}

// validateCheckpoint checks the whole image and decodes the payload.
func validateCheckpoint(data []byte) (*checkpointPayload, error) {
	if len(data) < checkpointHeaderLen+checkpointFooterLen {
		return nil, fmt.Errorf("truncated checkpoint (%d bytes)", len(data))
	}
	if string(data[:4]) != checkpointMagic {
		return nil, fmt.Errorf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != CheckpointVersion {
		return nil, fmt.Errorf("checkpoint version %d, want %d", v, CheckpointVersion)
	}
	plen := binary.LittleEndian.Uint64(data[8:16])
	if uint64(len(data)) != checkpointHeaderLen+plen+checkpointFooterLen {
		return nil, fmt.Errorf("payload length %d does not match file of %d bytes", plen, len(data))
	}
	payload := data[checkpointHeaderLen : checkpointHeaderLen+plen]
	footer := data[checkpointHeaderLen+plen:]
	if string(footer[:4]) != checkpointEndMagic {
		return nil, fmt.Errorf("bad trailer magic %q", footer[:4])
	}
	if crc := binary.LittleEndian.Uint32(footer[4:8]); crc != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("CRC mismatch")
	}
	var p checkpointPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("malformed payload: %w", err)
	}
	return &p, nil
}

// quarantinePath returns the first free *.quarantined sibling of path.
func quarantinePath(path string) string {
	dst := path + quarantineSuffix
	for i := 2; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			return dst
		}
		dst = fmt.Sprintf("%s%s.%d", path, quarantineSuffix, i)
	}
}

// RemoveCheckpoint deletes a campaign's checkpoint (the -restart path). A
// missing file is not an error.
func RemoveCheckpoint(path string) error {
	err := os.Remove(path)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// CheckpointPathIn returns the checkpoint location inside a campaign state
// directory.
func CheckpointPathIn(dir string) string {
	return filepath.Join(dir, CheckpointFile)
}

package libm

import (
	"math"
	"sync"
)

// Bfloat16 result memo tables. The bfloat16 input space embedded in float32
// is exactly the 2^16 bit patterns whose low 16 bits are zero, so the entire
// function — specials included — fits in a 256 KiB table per function that
// stays L2-resident under load. The serving layer's bf16 batch path answers
// representable inputs with one table load instead of running range
// reduction, the full polynomial and the narrowing round per element.
//
// Each table is built lazily from the full Horner block kernel, each result
// rounded once to bfloat16, so a lookup is bit-identical to the Horner bf16
// kernel by construction. The table is scheme-independent: every scheme's
// kernel rounds to the same bfloat16 result at all 2^16 patterns
// (TestBf16TableMatchesEveryScheme), so one table per function serves all
// four schemes.

var (
	bf16TableMu sync.Mutex
	bf16Tables  = map[string]*[1 << 16]uint32{}
)

// Bf16Table returns the bfloat16 result table for function fname, keyed by
// the high 16 bits of the representable input's float32 pattern; entries are
// float32 result bits. The first call per function builds the table (one
// block-kernel evaluation per pattern, about 1 ms); later calls return the
// cached table. Returns nil when fname has no generated kernel.
func Bf16Table(fname string) *[1 << 16]uint32 {
	bf16TableMu.Lock()
	defer bf16TableMu.Unlock()
	if t, ok := bf16Tables[fname]; ok {
		return t
	}
	block := GeneratedBlockFuncs[fname+"/rlibm"]
	if block == nil {
		return nil
	}
	bf16, _ := PrecSpecByName("bf16")
	t := new([1 << 16]uint32)
	b := make([]float64, generatedBatchBlock)
	for base := 0; base < len(t); base += len(b) {
		for i := range b {
			b[i] = float64(math.Float32frombits(uint32(base+i) << 16))
		}
		block(b)
		roundBlock(b, bf16.shift(), bf16.Out)
		for i, d := range b {
			t[base+i] = math.Float32bits(float32(d))
		}
	}
	bf16Tables[fname] = t
	return t
}

package libm

import (
	"math"
	"testing"
)

// TestBf16TableMatchesEveryScheme: the per-function bfloat16 result table is
// shared across schemes, so every scheme's full kernel rounded to bfloat16
// must produce the table's bits for every one of the 2^16 representable
// input patterns — specials, subnormals, NaN payloads, everything. This is
// the exhaustive proof behind the batch fast path's scheme-independent
// lookup.
func TestBf16TableMatchesEveryScheme(t *testing.T) {
	bf16, _ := PrecSpecByName("bf16")
	for _, name := range FuncNames {
		tab := Bf16Table(name)
		if tab == nil {
			t.Fatalf("no bf16 table for %s", name)
		}
		for _, s := range Schemes {
			kern := GeneratedFuncs[name+"/"+s.String()]
			for i := range tab {
				x := math.Float32frombits(uint32(i) << 16)
				got := math.Float32bits(float32(roundNarrow(kern(float64(x)), bf16.shift(), bf16.Out)))
				if got != tab[i] {
					t.Fatalf("%s/%v(%x): kernel %#08x, table %#08x",
						name, s, uint32(i)<<16, got, tab[i])
				}
			}
		}
	}
}

// TestBf16TableUnknownFunc: an unknown function has no table, not a panic.
func TestBf16TableUnknownFunc(t *testing.T) {
	if tab := Bf16Table("sinpi"); tab != nil {
		t.Error("Bf16Table for an unknown function should be nil")
	}
}

package expt_test

import (
	"testing"

	"codelayout/internal/expt"
)

// TestFetchStallMatchesSimOSL1I is the cross-model oracle between the
// machine's inline fetch-stall L1I and the battery's SimOS L1I (HW21264):
// both are 64KB/64B/2-way per CPU over the combined app+kernel stream, so
// with no warmup to warm the inline cache alone, every stall the machine
// charges is a miss the sink counts, and the other way round.
func TestFetchStallMatchesSimOSL1I(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := expt.QuickOptions()
	o.WarmupTxns = 0
	o.FetchStallPenaltyInstr = 40
	s, err := expt.NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []string{"base", "all"} {
		m, err := s.MeasureNeed(layout, o.CPUs, expt.NeedMem)
		if err != nil {
			t.Fatal(err)
		}
		stall := m.Res.FetchStallInstr
		if stall == 0 || stall%o.FetchStallPenaltyInstr != 0 {
			t.Fatalf("%s: fetch stall %d is not a positive multiple of the %d-instruction penalty",
				layout, stall, o.FetchStallPenaltyInstr)
		}
		if misses := stall / o.FetchStallPenaltyInstr; misses != m.HW21264.Misses {
			t.Errorf("%s: inline L1I took %d misses, the SimOS L1I sink %d", layout, misses, m.HW21264.Misses)
		} else {
			t.Logf("%s: %d misses on both models", layout, misses)
		}
	}
}

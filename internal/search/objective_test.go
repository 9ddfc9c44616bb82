package search

import (
	"testing"

	"codelayout/internal/core"
	"codelayout/internal/expt"
	"codelayout/internal/ordere"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
)

// TestObjectiveNeedCoversScore checks each objective's declared need against
// what its score reads: on tpcb and ordere, the score of a measurement that
// built only the objective's sinks equals the score of a full-battery
// measurement of the same layout.
func TestObjectiveNeedCoversScore(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	wls := []workload.Workload{
		tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150}),
		ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120}),
	}
	o := expt.QuickOptions()
	o.Transactions, o.WarmupTxns, o.Train.Txns = 60, 15, 150
	o.CPUs, o.ProcsPerCPU = 2, 4
	o.LibScale, o.ColdWords, o.KernColdWords = 0.3, 400_000, 100_000
	o.FetchStallPenaltyInstr = DefaultStallPenalty
	o.Workload, o.Train.Workload = wls[0], wls[0]
	src, err := expt.NewProfileSource(o, wls[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	objectives := []Objective{ObjectiveInstrPerTxn, ObjectiveMissRatio, ObjectiveP50, ObjectiveP99}
	for _, wl := range wls {
		eo := o
		eo.Workload = wl
		// A session per measurement, so each need runs on its own rather
		// than hitting an entry another need already covered.
		measure := func(need expt.Need) *expt.Measure {
			s, err := expt.NewSessionFrom(src, eo)
			if err != nil {
				t.Fatal(err)
			}
			m, err := s.MeasureNeed(core.TxFuseSpec, eo.CPUs, need)
			if err != nil {
				t.Fatal(err)
			}
			if m.Has != need {
				t.Fatalf("%s: measured %b, asked for %b", wl.Name(), m.Has, need)
			}
			return m
		}
		full := measure(expt.NeedAll)
		byNeed := make(map[expt.Need]*expt.Measure)
		for _, obj := range objectives {
			need := obj.need()
			if byNeed[need] == nil {
				byNeed[need] = measure(need)
			}
			if got, want := obj.score(byNeed[need]), obj.score(full); got != want {
				t.Errorf("%s/%s: score %v from need %b, %v from the full battery", wl.Name(), obj, got, need, want)
			}
		}
	}
}

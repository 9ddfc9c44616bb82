package expt_test

import (
	"reflect"
	"sync"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/mem"
	"codelayout/internal/trace"
)

// TestMeasureNeedUpgrade pins the demand-driven memo: a key measured with the
// empty need carries only the machine's own results, a later NeedAll call
// upgrades it with one more run into the full battery's exact numbers, and
// the upgraded entry then serves the smaller need as a hit. Concurrent
// batches with mixed needs on one session end with every key covering the
// union of their needs.
func TestMeasureNeedUpgrade(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	shared := session(t)
	newSession := func() *expt.Session {
		s, err := expt.NewSessionFrom(shared.Source(), shared.Opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cpus := shared.Opt.CPUs

	s := newSession()
	small, err := s.MeasureNeed("all", cpus, expt.NeedNone)
	if err != nil {
		t.Fatal(err)
	}
	if small.Has != expt.NeedNone {
		t.Errorf("empty-need measurement has %b, want none", small.Has)
	}
	if small.AppDM != nil || small.App4W != nil || small.Comb4W != nil || small.Kern4W != nil ||
		small.Word != nil || small.Intf != nil || small.Seq != nil || small.Foot != nil ||
		small.HW21264 != nil || small.HW21164 != nil {
		t.Error("empty-need measurement filled a sink field")
	}
	if small.AppRuns != (trace.Counter{}) || small.AllRuns != (trace.Counter{}) ||
		small.ITLB64 != 0 || small.ITLB48 != 0 || small.Mem != (mem.Stats{}) || small.Board != (mem.Stats{}) {
		t.Error("empty-need measurement filled a sink counter")
	}

	full, err := s.Measure("all", cpus)
	if err != nil {
		t.Fatal(err)
	}
	if ms := s.MemoStats().Measure; ms.Misses != 2 || ms.Entries != 1 {
		t.Errorf("empty need then NeedAll: %d misses, %d entries; want 2 and 1", ms.Misses, ms.Entries)
	}
	if full.Has != expt.NeedAll {
		t.Errorf("upgraded measurement has %b, want NeedAll", full.Has)
	}
	if !reflect.DeepEqual(small.Res, full.Res) || !reflect.DeepEqual(small.Latency, full.Latency) ||
		!reflect.DeepEqual(small.GCWindows, full.GCWindows) {
		t.Error("the sinks changed the machine's results")
	}
	fresh, err := newSession().Measure("all", cpus)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, fresh) {
		t.Error("upgraded measurement differs from a fresh full-battery session's")
	}

	again, err := s.MeasureNeed("all", cpus, expt.NeedNone)
	if err != nil {
		t.Fatal(err)
	}
	if ms := s.MemoStats().Measure; again != full || ms.Misses != 2 || ms.Hits != 1 {
		t.Errorf("empty need after NeedAll: %d misses, %d hits, same entry %v; want a hit on the upgraded entry",
			ms.Misses, ms.Hits, again == full)
	}

	// Mixed needs racing on one session: every batch returns covered, and
	// the entries end at the union.
	names := []string{"base", "all"}
	needs := []expt.Need{expt.NeedNone, expt.NeedApp4W, expt.NeedAll, expt.NeedMem | expt.NeedKern4W}
	c := newSession()
	var wg sync.WaitGroup
	for _, need := range needs {
		wg.Add(1)
		go func(need expt.Need) {
			defer wg.Done()
			if err := c.MeasureBatch(names, cpus, 2, need); err != nil {
				t.Error(err)
			}
		}(need)
	}
	wg.Wait()
	ms := c.MemoStats().Measure
	if ms.Entries != uint64(len(names)) || ms.Misses < uint64(len(names)) || ms.Misses > uint64(len(names)*len(needs)) {
		t.Errorf("mixed-need batches: %d misses, %d entries", ms.Misses, ms.Entries)
	}
	for _, name := range names {
		m, err := c.MeasureNeed(name, cpus, expt.NeedAll)
		if err != nil {
			t.Fatal(err)
		}
		want, err := shared.Measure(name, cpus)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Errorf("%s after mixed-need batches differs from the full battery's", name)
		}
	}
	if after := c.MemoStats().Measure; after.Misses != ms.Misses {
		t.Errorf("NeedAll after the batches ran %d more measurements, want 0", after.Misses-ms.Misses)
	}
}

// TestMeasureNeedGroupsMatchFullBattery measures each sink group on its own
// and checks its fields against the full battery's: every group builds all
// the simulators its numbers depend on, so nothing it reports changes when
// the other groups are left out.
func TestMeasureNeedGroupsMatchFullBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	shared := session(t)
	cpus := shared.Opt.CPUs
	full, err := shared.Measure("all", cpus)
	if err != nil {
		t.Fatal(err)
	}
	groups := []struct {
		need   expt.Need
		fields func(*expt.Measure) []any
	}{
		{expt.NeedAppDM, func(m *expt.Measure) []any { return []any{m.AppDM} }},
		{expt.NeedApp4W, func(m *expt.Measure) []any { return []any{m.App4W} }},
		{expt.NeedComb4W, func(m *expt.Measure) []any { return []any{m.Comb4W} }},
		{expt.NeedKern4W, func(m *expt.Measure) []any { return []any{m.Kern4W} }},
		{expt.NeedWord, func(m *expt.Measure) []any { return []any{m.Word} }},
		{expt.NeedIntf, func(m *expt.Measure) []any { return []any{m.Intf} }},
		{expt.NeedSeqFoot, func(m *expt.Measure) []any { return []any{m.Seq, m.Foot} }},
		{expt.NeedRuns, func(m *expt.Measure) []any { return []any{m.AppRuns, m.AllRuns} }},
		{expt.NeedITLB, func(m *expt.Measure) []any { return []any{m.ITLB64, m.ITLB48} }},
		{expt.NeedMem, func(m *expt.Measure) []any { return []any{m.HW21264, m.Mem} }},
		{expt.NeedBoard, func(m *expt.Measure) []any { return []any{m.HW21164, m.Board} }},
	}
	var union expt.Need
	for _, g := range groups {
		union |= g.need
		s, err := expt.NewSessionFrom(shared.Source(), shared.Opt)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.MeasureNeed("all", cpus, g.need)
		if err != nil {
			t.Fatal(err)
		}
		if m.Has != g.need {
			t.Errorf("need %b measured %b", g.need, m.Has)
		}
		if !reflect.DeepEqual(g.fields(m), g.fields(full)) {
			t.Errorf("need %b alone differs from the full battery", g.need)
		}
	}
	if union != expt.NeedAll {
		t.Errorf("the groups cover %b, NeedAll is %b", union, expt.NeedAll)
	}
}

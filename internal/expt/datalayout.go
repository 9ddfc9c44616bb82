package expt

import (
	"fmt"

	"codelayout/internal/stats"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// DataLayoutSpec configures the record-layout comparison: each regime
// (uniform, plus a skewed variant when the workload has a skew knob) is
// trained once and measured twice — interleaved vs grouped physical record
// layout — so the delta columns isolate what hot/cold field grouping buys
// the data cache.
type DataLayoutSpec struct {
	// CPUs is the measured processor count; 0 uses the options' CPUs.
	CPUs int
	// ZipfTheta is the YCSB skewed regime's Zipfian parameter in (0, 1);
	// 0 selects 0.9 (the YCSB default). Ignored for other workloads.
	ZipfTheta float64
	// HotAccountFrac is the TPC-B skewed regime's hot-account fraction in
	// (0, 1); 0 selects 0.1. Ignored for other workloads.
	HotAccountFrac float64
	// UniformOnly skips the skewed regime even when the workload has a
	// skew knob.
	UniformOnly bool
}

// dataLayoutRegimes returns the regimes the table runs: the workload as
// given, plus its skewed variant when it has a skew knob and is not already
// skewed. Order-entry has no skew knob, so it gets the uniform row only.
func dataLayoutRegimes(o Options, spec DataLayoutSpec) []struct {
	name string
	wl   workload.Workload
} {
	type regime = struct {
		name string
		wl   workload.Workload
	}
	regimes := []regime{{name: "uniform", wl: o.Workload}}
	if spec.UniformOnly {
		return regimes
	}
	switch w := o.Workload.(type) {
	case *tpcb.Workload:
		if w.HotAccountFrac == 0 {
			frac := spec.HotAccountFrac
			if frac == 0 {
				frac = 0.1
			}
			skew := *w
			skew.HotAccountFrac = frac
			regimes = append(regimes, regime{name: fmt.Sprintf("hot %.0f%%", frac*100), wl: &skew})
		}
	case *ycsb.Workload:
		if w.ZipfTheta == 0 {
			theta := spec.ZipfTheta
			if theta == 0 {
				theta = 0.9
			}
			skew := *w
			skew.ZipfTheta = theta
			regimes = append(regimes, regime{name: fmt.Sprintf("zipf %.2f", theta), wl: &skew})
		}
	}
	return regimes
}

// DataLayoutTable measures the profile-guided record layout against the
// interleaved baseline: per regime (uniform key draw, then the skewed draw
// if the workload has a skew knob), one training run feeds two measured
// runs that differ only in the physical record layout the machine installs
// before loading. Code layout is held at "base"/"kbase" throughout so every
// delta is attributable to data layout alone.
func DataLayoutTable(o Options, spec DataLayoutSpec) (*stats.Table, error) {
	if spec.ZipfTheta < 0 || spec.ZipfTheta >= 1 {
		return nil, fmt.Errorf("expt: DataLayoutSpec.ZipfTheta = %v; must be in [0, 1) (0 selects 0.9)", spec.ZipfTheta)
	}
	if spec.HotAccountFrac < 0 || spec.HotAccountFrac >= 1 {
		return nil, fmt.Errorf("expt: DataLayoutSpec.HotAccountFrac = %v; must be in [0, 1) (0 selects 0.1)", spec.HotAccountFrac)
	}
	cpus := spec.CPUs
	if cpus == 0 {
		cpus = o.CPUs
	}
	if o.Workload == nil {
		o.Workload = defaultWorkload()
	}
	regimes := dataLayoutRegimes(o, spec)

	extras := make([]workload.Workload, 0, 1)
	for _, r := range regimes[1:] {
		extras = append(extras, r.wl)
	}
	src, err := NewProfileSource(o, extras...)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("Record layout: %s, %d cpus, interleaved vs grouped (code layout held at base)",
			o.Workload.Name(), cpus),
		"regime", "record layout", "L1D refs", "L1D misses", "miss %", "instr/txn", "p50", "p99")

	for _, r := range regimes {
		eo := o
		eo.Workload = r.wl
		eo.RecordLayout = "interleaved"
		sI, err := NewSessionFrom(src, eo)
		if err != nil {
			return nil, err
		}
		og := eo
		og.RecordLayout = "grouped"
		sG, err := NewSessionFrom(src, og)
		if err != nil {
			return nil, err
		}
		mI, err := sI.MeasureNeed("base", cpus, NeedMem)
		if err != nil {
			return nil, fmt.Errorf("regime %s interleaved: %w", r.name, err)
		}
		mG, err := sG.MeasureNeed("base", cpus, NeedMem)
		if err != nil {
			return nil, fmt.Errorf("regime %s grouped: %w", r.name, err)
		}
		for _, row := range []struct {
			layout string
			m      *Measure
		}{{"interleaved", mI}, {"grouped", mG}} {
			m := row.m
			miss := 0.0
			if m.Mem.L1DAccesses > 0 {
				miss = float64(m.Mem.L1DMisses) / float64(m.Mem.L1DAccesses)
			}
			t.AddRow(r.name, row.layout,
				m.Mem.L1DAccesses, m.Mem.L1DMisses, stats.Pct(miss),
				fmt.Sprintf("%.0f", newSweepRow(m, cpus).perTxn),
				m.Res.Latency.P50, m.Res.Latency.P99)
		}
		t.Notef("%s: grouped Δ L1D misses %s, Δ p99 %s vs interleaved", r.name,
			delta(float64(mI.Mem.L1DMisses), float64(mG.Mem.L1DMisses)),
			delta(float64(mI.Res.Latency.P99), float64(mG.Res.Latency.P99)))
	}
	t.Note("grouped = hot fields (by trained field-access profile) packed contiguously at the record head; same record width, same instruction stream")
	return t, nil
}

package expt

import (
	"fmt"

	"codelayout/internal/cache"
	"codelayout/internal/perfmodel"
	"codelayout/internal/stats"
)

// fig12 — combined application + operating system instruction streams.
func fig12(s *Session) ([]*stats.Table, error) {
	var out []*stats.Table
	for _, name := range []string{"base", "all"} {
		m, err := s.Measure(name, s.Opt.CPUs)
		if err != nil {
			return nil, err
		}
		title := "Figure 12(a): combined streams, baseline binary (128B, 4-way)"
		if name == "all" {
			title = "Figure 12(b): combined streams, optimized binary (128B, 4-way)"
		}
		t := stats.NewTable(title, append([]string{"stream"}, sizeCols()...)...)
		rows := []struct {
			label string
			get   func(size int) uint64
		}{
			{"all (combined)", func(sz int) uint64 { return m.Comb4W[sz].Misses }},
			{"application (isolated)", func(sz int) uint64 { return m.App4W[sz].Misses }},
			{"kernel (isolated)", func(sz int) uint64 { return m.Kern4W[sz].Misses }},
		}
		for _, r := range rows {
			row := []interface{}{r.label}
			for _, size := range CacheSizesKB {
				row = append(row, r.get(size))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	base, err := s.Measure("base", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	opt, err := s.Measure("all", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	cmp := stats.NewTable("Figure 12 summary: combined-miss reduction", "size", "combined opt/base", "isolated app opt/base")
	for _, size := range CacheSizesKB {
		cmp.AddRow(fmt.Sprintf("%dKB", size),
			pctOf(opt.Comb4W[size].Misses, base.Comb4W[size].Misses),
			pctOf(opt.App4W[size].Misses, base.App4W[size].Misses))
	}
	cmp.Note("paper: 45-60% combined reduction vs 55-65% app-only at 64-128KB")
	out = append(out, cmp)
	return out, nil
}

// fig13 — interference between application and kernel streams.
func fig13(s *Session) ([]*stats.Table, error) {
	var out []*stats.Table
	for _, name := range []string{"base", "all"} {
		m, err := s.Measure(name, s.Opt.CPUs)
		if err != nil {
			return nil, err
		}
		title := "Figure 13(a): interference, baseline binary (128KB/128B/4-way)"
		if name == "all" {
			title = "Figure 13(b): interference, optimized binary (128KB/128B/4-way)"
		}
		t := stats.NewTable(title,
			"missing process", "on kernel-owned line", "on application-owned line", "cold", "total")
		appRow := m.Intf.VictimBy[cache.OwnerApp]
		kernRow := m.Intf.VictimBy[cache.OwnerKernel]
		t.AddRow("kernel", kernRow[cache.OwnerKernel], kernRow[cache.OwnerApp], kernRow[cache.OwnerNone], m.Intf.MissBy[cache.OwnerKernel])
		t.AddRow("application", appRow[cache.OwnerKernel], appRow[cache.OwnerApp], appRow[cache.OwnerNone], m.Intf.MissBy[cache.OwnerApp])
		t.AddRow("both",
			kernRow[cache.OwnerKernel]+appRow[cache.OwnerKernel],
			kernRow[cache.OwnerApp]+appRow[cache.OwnerApp],
			kernRow[cache.OwnerNone]+appRow[cache.OwnerNone],
			m.Intf.Misses)
		out = append(out, t)
	}
	out[0].Note("paper: application misses are mostly self-interference; kernel misses are mostly app-inflicted")
	return out, nil
}

// fig14 — iTLB and L2 behavior.
func fig14(s *Session) ([]*stats.Table, error) {
	base, err := s.Measure("base", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	opt, err := s.Measure("all", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 14: iTLB and L2 misses (64-entry iTLB, 1.5MB 6-way L2)",
		"structure", "base", "optimized", "opt/base")
	t.AddRow("iTLB", base.ITLB64, opt.ITLB64, pctOf(opt.ITLB64, base.ITLB64))
	t.AddRow("L2 instruction misses", base.Mem.L2Misses[0], opt.Mem.L2Misses[0],
		pctOf(opt.Mem.L2Misses[0], base.Mem.L2Misses[0]))
	t.AddRow("L2 data misses", base.Mem.L2Misses[1], opt.Mem.L2Misses[1],
		pctOf(opt.Mem.L2Misses[1], base.Mem.L2Misses[1]))
	t.Note("paper: all three drop; L2 data misses drop because packed code displaces fewer data lines")
	return []*stats.Table{t}, nil
}

// countsFor assembles the cycle-model inputs from a measure.
func counts21264(m *Measure) perfmodel.Counts {
	return perfmodel.Counts{
		Instructions: m.Res.BusyInstrs,
		L1IMisses:    m.HW21264.Misses,
		L1DMisses:    m.Mem.L1DMisses,
		L2Misses:     m.Mem.L2Misses[0] + m.Mem.L2Misses[1],
		CommMisses:   m.Mem.CommRead + m.Mem.CommWrite,
		ITLBMisses:   m.ITLB64,
	}
}

func counts21164(m *Measure) perfmodel.Counts {
	return perfmodel.Counts{
		Instructions: m.Res.BusyInstrs,
		L1IMisses:    m.HW21164.Misses,
		L1DMisses:    m.Board.L1DMisses,
		L2Misses:     m.Board.L2Misses[0] + m.Board.L2Misses[1],
		CommMisses:   m.Board.CommRead + m.Board.CommWrite,
		ITLBMisses:   m.ITLB48,
	}
}

// fig15 — relative execution time per optimization combination on the two
// hardware platforms (single-processor runs, as in the paper).
func fig15(s *Session) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 15: relative execution time (non-idle cycles, %, 1 processor)",
		"combo", perfmodel.Alpha21264.Name, perfmodel.Alpha21164.Name)
	base, err := s.Measure("base", 1)
	if err != nil {
		return nil, err
	}
	b264, b164 := counts21264(base), counts21164(base)
	if err := s.MeasureBatch(comboNamesExt, 1, 0, NeedAll); err != nil {
		return nil, err
	}
	for _, name := range comboNamesExt {
		m, err := s.Measure(name, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			fmt.Sprintf("%.1f", 100*perfmodel.Relative(perfmodel.Alpha21264, counts21264(m), b264)),
			fmt.Sprintf("%.1f", 100*perfmodel.Relative(perfmodel.Alpha21164, counts21164(m), b164)))
	}
	t.Note("paper: 'all' lands near 75% on both platforms (1.33x), consistent across generations")
	return []*stats.Table{t}, nil
}

// footprint — the Section 4.1 in-text packing results.
func footprintExp(s *Session) ([]*stats.Table, error) {
	base, err := s.Measure("base", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	opt, err := s.Measure("all", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Text §4.1: code packing", "metric", "base", "optimized")
	t.AddRow("footprint in 128B lines (KB)", float64(base.Foot.Bytes())/1024, float64(opt.Foot.Bytes())/1024)
	t.AddRow("unique pages touched", base.Foot.Pages(), opt.Foot.Pages())
	t.AddRow("unused fetched instructions", stats.Pct(base.Word.UnusedFetchedFrac()), stats.Pct(opt.Word.UnusedFetchedFrac()))
	t.Note("paper: 500KB -> 315KB (37% smaller); unused fetched instructions 46% -> 21%")
	return []*stats.Table{t}, nil
}

// hw21164 — the Section 5 in-text 21164 hardware-counter results.
func hw21164Exp(s *Session) ([]*stats.Table, error) {
	base, err := s.Measure("base", 1)
	if err != nil {
		return nil, err
	}
	opt, err := s.Measure("all", 1)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Text §5: 21164 hardware counters (1 processor)",
		"structure", "base", "optimized", "reduction")
	red := func(o, b uint64) string {
		if b == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", 100*(1-float64(o)/float64(b)))
	}
	t.AddRow("icache misses (8KB direct)", base.HW21164.Misses, opt.HW21164.Misses,
		red(opt.HW21164.Misses, base.HW21164.Misses))
	t.AddRow("iTLB misses (48-entry)", base.ITLB48, opt.ITLB48, red(opt.ITLB48, base.ITLB48))
	bBoard := base.Board.L2Misses[0] + base.Board.L2Misses[1]
	oBoard := opt.Board.L2Misses[0] + opt.Board.L2Misses[1]
	t.AddRow("board cache misses (2MB direct)", bBoard, oBoard, red(oBoard, bBoard))
	t.Note("paper: -28% icache, -43% iTLB, -39% board cache")
	return []*stats.Table{t}, nil
}

// speedup — overall execution-time improvements (§5 in-text numbers).
func speedupExp(s *Session) ([]*stats.Table, error) {
	t := stats.NewTable("Text §5: overall speedup of the fully optimized binary",
		"platform", "speedup (x)")
	row := func(label string, plat perfmodel.Platform,
		counts func(*Measure) perfmodel.Counts, cpus int) error {
		base, err := s.Measure("base", cpus)
		if err != nil {
			return err
		}
		opt, err := s.Measure("all", cpus)
		if err != nil {
			return err
		}
		rel := perfmodel.Relative(plat, counts(opt), counts(base))
		t.AddRow(label, fmt.Sprintf("%.2f", 1/rel))
		return nil
	}
	if err := row("21264, 1 processor", perfmodel.Alpha21264, counts21264, 1); err != nil {
		return nil, err
	}
	if err := row("21164, 1 processor", perfmodel.Alpha21164, counts21164, 1); err != nil {
		return nil, err
	}
	if err := row(fmt.Sprintf("21364-sim, %d processors", s.Opt.CPUs), perfmodel.Alpha21364Sim, countsSimos, s.Opt.CPUs); err != nil {
		return nil, err
	}
	if err := row(fmt.Sprintf("21164, %d processors", s.Opt.CPUs), perfmodel.Alpha21164, counts21164, s.Opt.CPUs); err != nil {
		return nil, err
	}
	t.Note("paper: 1.33x on 21264 and 21164 single-processor, 1.37x in SimOS, 1.25x on 4 processors")
	return []*stats.Table{t}, nil
}

func countsSimos(m *Measure) perfmodel.Counts {
	return perfmodel.Counts{
		Instructions: m.Res.BusyInstrs,
		L1IMisses:    m.HW21264.Misses, // 64KB 2-way, the SimOS L1I
		L1DMisses:    m.Mem.L1DMisses,
		L2Misses:     m.Mem.L2Misses[0] + m.Mem.L2Misses[1],
		CommMisses:   m.Mem.CommRead + m.Mem.CommWrite,
		ITLBMisses:   m.ITLB64,
	}
}

// kernopt — optimizing the kernel's layout too (§5: small gains).
func kernoptExp(s *Session) ([]*stats.Table, error) {
	plain, err := s.MeasureKern("all", "kbase", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	kopt, err := s.MeasureKern("all", "kopt", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Text §5: adding kernel layout optimization (app already optimized)",
		"metric", "app-opt only", "app+kernel opt")
	for _, size := range []int{64, 128} {
		t.AddRow(fmt.Sprintf("combined misses %dKB", size),
			plain.Comb4W[size].Misses, kopt.Comb4W[size].Misses)
	}
	cyc := perfmodel.Cycles(perfmodel.Alpha21364Sim, countsSimos(plain))
	cycK := perfmodel.Cycles(perfmodel.Alpha21364Sim, countsSimos(kopt))
	t.AddRow("cycles (21364-sim)", cyc, cycK)
	if cycK < cyc {
		t.AddRow("additional speedup", "-", fmt.Sprintf("%.1f%%", 100*(float64(cyc)/float64(cycK)-1)))
	} else {
		t.AddRow("additional speedup", "-", fmt.Sprintf("%.1f%%", -100*(float64(cycK)/float64(cyc)-1)))
	}
	t.Note("paper: kernel layout optimization adds only ~3.5% (kernel is a small share of time)")
	return []*stats.Table{t}, nil
}

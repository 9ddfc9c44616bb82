package expt

import (
	"fmt"

	"codelayout/internal/isa"
	"codelayout/internal/program"
	"codelayout/internal/stats"
)

// combos are the Figure 7 / Figure 15 optimization combinations in paper
// order.
var comboNames = []string{"base", "porder", "chain", "chain+split", "chain+porder", "all"}

// comboNamesExt appends the combinations this reproduction measures next to
// the paper's six: the inter-procedural call-chaining pass and the
// per-transaction-kind program fusion pass.
var comboNamesExt = append(append([]string(nil), comboNames...), "ipchain", "fusion")

func pctOf(opt, base uint64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(opt)/float64(base))
}

// fig03 — execution profile of the unoptimized application binary.
func fig03(s *Session) ([]*stats.Table, error) {
	prof, err := s.Profile()
	if err != nil {
		return nil, err
	}
	base := s.src.baseApp
	prog := s.src.appImg.Prog
	static := make([]int64, prog.NumBlocks())
	dyn := make([]uint64, prog.NumBlocks())
	for i := range prog.Blocks {
		static[i] = int64(base.Occ[i]) * isa.WordBytes
		dyn[i] = prof.Count(program.BlockID(i)) * uint64(base.Occ[i])
	}
	pts := stats.CumulativeProfile(static, dyn)

	t := stats.NewTable("Figure 3: execution profile of the unoptimized binary",
		"coverage", "footprint (KB)")
	for _, frac := range []float64{0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99, 1.0} {
		t.AddRow(stats.Pct(frac), float64(stats.CoverageAt(pts, frac))/1024)
	}
	t2 := stats.NewTable("Figure 3 (reference points)", "metric", "value")
	t2.AddRow("fraction captured by 50KB", stats.Pct(stats.FracAtBytes(pts, 50<<10)))
	t2.AddRow("fraction captured by 200KB", stats.Pct(stats.FracAtBytes(pts, 200<<10)))
	if len(pts) > 0 {
		t2.AddRow("total executed footprint (KB)", float64(pts[len(pts)-1].Bytes)/1024)
	}
	t2.AddRow("static binary size (MB)", float64(base.TotalBytes())/(1<<20))
	t2.Note("paper: 50KB captures ~60%, 99% needs ~200KB, footprint ~260KB, binary 27MB")
	return []*stats.Table{t, t2}, nil
}

// fig04 — application icache misses across cache and line sizes.
func fig04(s *Session) ([]*stats.Table, error) {
	var out []*stats.Table
	for _, name := range []string{"base", "all"} {
		m, err := s.Measure(name, s.Opt.CPUs)
		if err != nil {
			return nil, err
		}
		title := "Figure 4(a): application icache misses, baseline binary (direct-mapped)"
		if name == "all" {
			title = "Figure 4(b): application icache misses, optimized binary (direct-mapped)"
		}
		t := stats.NewTable(title, append([]string{"line\\size"}, sizeCols()...)...)
		for _, line := range LineSizes {
			row := []interface{}{fmt.Sprintf("%dB", line)}
			for _, size := range CacheSizesKB {
				row = append(row, m.AppDM[size][line].Misses)
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out, nil
}

func sizeCols() []string {
	cols := make([]string, len(CacheSizesKB))
	for i, s := range CacheSizesKB {
		cols[i] = fmt.Sprintf("%dKB", s)
	}
	return cols
}

// fig05 — relative misses of the optimized binary over the baseline.
func fig05(s *Session) ([]*stats.Table, error) {
	base, err := s.Measure("base", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	opt, err := s.Measure("all", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 5: optimized/baseline application misses (%), direct-mapped",
		append([]string{"line\\size"}, sizeCols()...)...)
	for _, line := range LineSizes {
		row := []interface{}{fmt.Sprintf("%dB", line)}
		for _, size := range CacheSizesKB {
			row = append(row, pctOf(opt.AppDM[size][line].Misses, base.AppDM[size][line].Misses))
		}
		t.AddRow(row...)
	}
	t.Note("paper: 55-65% reduction (i.e. 35-45% relative) at 64-128KB with 128B lines")
	return []*stats.Table{t}, nil
}

// fig06 — associativity impact at 128-byte lines.
func fig06(s *Session) ([]*stats.Table, error) {
	base, err := s.Measure("base", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	opt, err := s.Measure("all", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 6: associativity impact (application misses, 128B lines)",
		"size", "base DM", "base 4-way", "opt DM", "opt 4-way")
	for _, size := range CacheSizesKB {
		t.AddRow(fmt.Sprintf("%dKB", size),
			base.AppDM[size][128].Misses, base.App4W[size].Misses,
			opt.AppDM[size][128].Misses, opt.App4W[size].Misses)
	}
	t.Note("paper: associativity gains are small next to layout gains at 32-128KB")
	return []*stats.Table{t}, nil
}

// fig07 — impact of each optimization combination.
func fig07(s *Session) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 7: application icache misses per optimization (128B lines, 4-way)",
		append([]string{"combo"}, sizeCols()...)...)
	if err := s.MeasureBatch(comboNamesExt, s.Opt.CPUs, 0, NeedAll); err != nil {
		return nil, err
	}
	for _, name := range comboNamesExt {
		m, err := s.Measure(name, s.Opt.CPUs)
		if err != nil {
			return nil, err
		}
		row := []interface{}{name}
		for _, size := range CacheSizesKB {
			row = append(row, m.App4W[size].Misses)
		}
		t.AddRow(row...)
	}
	t.Note("paper: porder alone slightly hurts; chain is the largest single win; all is best")
	return []*stats.Table{t}, nil
}

// fig08 — sequentially executed instructions.
func fig08(s *Session) ([]*stats.Table, error) {
	base, err := s.Measure("base", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	opt, err := s.Measure("all", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	a := stats.NewTable("Figure 8(a): average sequentially executed instructions", "setup", "avg length")
	avgBB := 0.0
	if base.AppRuns.Runs > 0 {
		avgBB = float64(base.AppRuns.Instructions) / float64(base.AppRuns.Runs)
	}
	a.AddRow("dynamic basic block size", avgBB)
	a.AddRow("base", base.Seq.Hist.Mean())
	a.AddRow("optimized", opt.Seq.Hist.Mean())
	a.Note("paper: base 7.3, optimized >10, basic block ~5")

	b := stats.NewTable("Figure 8(b): sequence length distribution (% of sequences)",
		"length", "base", "optimized")
	for l := 1; l <= 33; l++ {
		b.AddRow(l, stats.Pct(base.Seq.Hist.Frac(l)), stats.Pct(opt.Seq.Hist.Frac(l)))
	}
	b.AddRow(">33",
		stats.Pct(base.Seq.Hist.Frac(34)),
		stats.Pct(opt.Seq.Hist.Frac(34)))
	b.Note("paper: optimized cuts 1-instruction sequences from 21% to 15% and spikes near 17")
	return []*stats.Table{a, b}, nil
}

// fig09 — unique words used before replacement.
func fig09(s *Session) ([]*stats.Table, error) {
	base, err := s.Measure("base", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	opt, err := s.Measure("all", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 9: unique words used before replacement (128KB/128B/4-way, % of replacements)",
		"words", "base", "optimized")
	for w := 1; w <= 32; w++ {
		t.AddRow(w, stats.Pct(base.Word.WordsUsed.Frac(w)), stats.Pct(opt.Word.WordsUsed.Frac(w)))
	}
	t.Note("paper: optimized uses all 32 words in >60% of replaced lines")
	return []*stats.Table{t}, nil
}

// fig10 — times an individual word is used before replacement.
func fig10(s *Session) ([]*stats.Table, error) {
	base, err := s.Measure("base", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	opt, err := s.Measure("all", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 10: word reuse before replacement (128KB/128B/4-way, % of words loaded)",
		"uses", "base", "optimized")
	for n := 0; n <= 15; n++ {
		t.AddRow(n, stats.Pct(base.Word.WordReuse.Frac(n)), stats.Pct(opt.Word.WordReuse.Frac(n)))
	}
	t.Note("paper: base leaves >half of fetched words unused; optimized raises multi-use words")
	return []*stats.Table{t}, nil
}

// fig11 — cache line lifetimes.
func fig11(s *Session) ([]*stats.Table, error) {
	base, err := s.Measure("base", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	opt, err := s.Measure("all", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 11: cache line lifetimes (128KB/128B/4-way, % of replacements)",
		"log2(cache cycles)", "base", "optimized")
	maxB := len(base.Word.Lifetime.Counts)
	if n := len(opt.Word.Lifetime.Counts); n > maxB {
		maxB = n
	}
	for bkt := 0; bkt < maxB; bkt++ {
		bf, of := base.Word.Lifetime.Frac(bkt), opt.Word.Lifetime.Frac(bkt)
		if bf == 0 && of == 0 {
			continue
		}
		t.AddRow(bkt, stats.Pct(bf), stats.Pct(of))
	}
	t.Note("paper: average lifetime improves by over 2x")
	return []*stats.Table{t}, nil
}

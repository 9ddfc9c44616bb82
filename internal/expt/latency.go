package expt

import (
	"fmt"

	"codelayout/internal/stats"
	"codelayout/internal/workload"
)

// LatencySpec configures the latency percentile tables: every listed
// workload × shard count is measured self-trained under the baseline
// (original) layout and under the optimized layout, and the tables report
// p50/p95/p99/max per-transaction latency — the tail-latency view of the
// layout win that whole-run instruction and miss-ratio aggregates hide.
type LatencySpec struct {
	// Workloads are the mixes to measure; at least one. All of them join
	// one union app image, so layouts and measurements share one program.
	Workloads []workload.Workload
	// Shards are the shard counts to measure; empty means {1}.
	Shards []int
	// Layout is the optimized pipeline combo ("all" if empty), compared
	// against the "base" (original) layout.
	Layout string
	// CPUs overrides the measurement processor count (0 = Options.CPUs).
	CPUs int
}

// LatencyTables measures every workload × shard count cell under the
// original and the optimized layout and renders two tables: run-wide
// percentiles per cell, and the per-shard × transaction-kind breakdown.
// Group-commit and auto-tuning settings come from o, so the same tables
// serve fixed windows, AutoGCFlushCount and AutoGCTargetP99 runs.
func LatencyTables(o Options, spec LatencySpec) ([]*stats.Table, error) {
	if len(spec.Workloads) == 0 {
		return nil, fmt.Errorf("expt: latency tables need at least one workload")
	}
	if len(spec.Shards) == 0 {
		spec.Shards = []int{1}
	}
	if spec.Layout == "" {
		spec.Layout = "all"
	}
	cpus := spec.CPUs
	if cpus == 0 {
		cpus = o.CPUs
	}
	o.Workload = spec.Workloads[0]
	src, err := NewProfileSource(o, spec.Workloads[1:]...)
	if err != nil {
		return nil, err
	}

	sum := stats.NewTable(
		fmt.Sprintf("Transaction latency percentiles (instruction-times), orig vs %q layout", spec.Layout),
		"workload", "shards", "layout", "txns", "mean", "p50", "p95", "p99", "max")
	kinds := stats.NewTable(
		fmt.Sprintf("Transaction latency by shard and kind, orig vs %q layout", spec.Layout),
		"workload", "shards", "layout", "shard", "kind", "txns", "p50", "p95", "p99", "max")
	// The fusion layout additionally measures ipchain — its structural
	// sibling (same chain+porder skeleton, per-call-edge merging instead of
	// per-kind fusion) — and reports per-kind deltas against it.
	var fuse *stats.Table
	if spec.Layout == "fusion" {
		fuse = stats.NewTable(
			"Per-kind latency, fusion vs ipchain (negative Δ = fusion faster)",
			"workload", "shards", "kind", "txns", "p50 fuse", "p50 ipc", "Δp50", "p99 fuse", "p99 ipc", "Δp99")
	}

	for _, wl := range spec.Workloads {
		for _, n := range spec.Shards {
			eo := o
			eo.Workload = wl
			eo.Shards = n
			s, err := NewSessionFrom(src, eo)
			if err != nil {
				return nil, err
			}
			layouts := []string{"base"}
			if spec.Layout != "base" {
				layouts = append(layouts, spec.Layout)
			}
			if fuse != nil {
				layouts = append(layouts, "ipchain")
			}
			cell := make(map[string]*Measure, len(layouts))
			for _, layout := range layouts {
				m, err := s.MeasureNeed(layout, cpus, NeedNone)
				if err != nil {
					return nil, fmt.Errorf("latency %s/s%d layout=%s: %w", wl.Name(), n, layout, err)
				}
				cell[layout] = m
				name := "orig"
				if layout != "base" {
					name = layout
				}
				l := m.Res.Latency
				sum.AddRow(wl.Name(), shardKey(n), name, l.N,
					fmt.Sprintf("%.0f", l.Mean), l.P50, l.P95, l.P99, l.Max)
				for _, c := range m.Latency {
					kinds.AddRow(wl.Name(), shardKey(n), name, c.Shard, c.Kind,
						c.Summary.N, c.Summary.P50, c.Summary.P95, c.Summary.P99, c.Summary.Max)
				}
			}
			if fuse != nil {
				addFusionRows(fuse, wl.Name(), shardKey(n), cell["fusion"], cell["ipchain"])
			}
		}
	}
	sum.Note("latency = request generation through successful commit on the simulated clock (1 instr-time ≈ 1 ns); deadlock retries and group-commit waits included")
	kinds.Note("cells are keyed by the transaction's home shard and the workload's kind label (_dist kinds commit through 2PC)")
	out := []*stats.Table{sum, kinds}
	if fuse != nil {
		if o.FetchStallPenaltyInstr == 0 {
			fuse.Note("FetchStallPenaltyInstr is 0: the clock charges no miss stalls, so layout locality cannot move latency — set a penalty to see fusion's win")
		} else {
			fuse.Note(fmt.Sprintf("per-kind cells merged across home shards; clock charges %d instr-times per L1I miss", o.FetchStallPenaltyInstr))
		}
		out = append(out, fuse)
	}
	return out, nil
}

// addFusionRows emits one per-kind comparison row per transaction kind,
// merging each layout's latency cells across home shards.
func addFusionRows(t *stats.Table, wl string, shards int, fuse, ipc *Measure) {
	fh, order := kindHists(fuse)
	ih, _ := kindHists(ipc)
	for _, kind := range order {
		f, i := fh[kind], ih[kind]
		if f == nil || i == nil || f.N == 0 || i.N == 0 {
			continue
		}
		f50, f99 := f.Quantile(0.50), f.Quantile(0.99)
		i50, i99 := i.Quantile(0.50), i.Quantile(0.99)
		t.AddRow(wl, shards, kind, f.N, f50, i50, deltaPct(f50, i50), f99, i99, deltaPct(f99, i99))
	}
}

// kindHists merges a measure's latency histograms across shards per kind and
// returns them with the kinds in first-seen (shard-then-kind) order.
func kindHists(m *Measure) (map[string]*stats.Log2Hist, []string) {
	out := make(map[string]*stats.Log2Hist)
	var order []string
	for _, c := range m.Latency {
		h := out[c.Kind]
		if h == nil {
			h = &stats.Log2Hist{}
			out[c.Kind] = h
			order = append(order, c.Kind)
		}
		h.Merge(c.Hist)
	}
	return out, order
}

func deltaPct(a, b uint64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(float64(a)-float64(b))/float64(b))
}

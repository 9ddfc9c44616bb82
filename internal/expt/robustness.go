package expt

import (
	"fmt"

	"codelayout/internal/machine"
	"codelayout/internal/stats"
	"codelayout/internal/workload"
)

// RobustnessSpec configures the train×eval robustness matrix: every listed
// workload × shard count is both a training configuration and an evaluation
// cell, so the matrix's diagonal is the paper's self-trained setup and every
// off-diagonal entry is a transplanted layout — the AI-PROPELLER-style
// profile-drift question asked across workloads and across shard counts at
// once.
type RobustnessSpec struct {
	// Workloads are the mixes spanning both axes; at least one. All of
	// them join one union app image, so their profiles are portable.
	Workloads []workload.Workload
	// Shards are the shard counts spanning both axes; empty means {1}.
	Shards []int
	// Layout is the pipeline combo trained and evaluated ("all" if empty).
	Layout string
	// CPUs overrides the measurement processor count (0 = Options.CPUs).
	CPUs int
}

// RobustnessCell is one matrix entry: the layout trained under Train,
// evaluated under Eval.
type RobustnessCell struct {
	TrainWorkload string
	TrainShards   int
	EvalWorkload  string
	EvalShards    int
	// SelfTrained marks the diagonal (train spec == eval spec).
	SelfTrained bool
	// MissRatio is the application icache miss ratio (64KB/128B/4-way).
	MissRatio float64
	// BaseMissRatio is the unoptimized binary's ratio for the same eval
	// cell (one baseline per cell, shared across its train rows).
	BaseMissRatio float64
	// InstrPerTxn is busy (app+kernel) instructions per committed
	// transaction.
	InstrPerTxn float64
}

// RobustnessResult is the full matrix plus the tables rendering it.
type RobustnessResult struct {
	Cells  []RobustnessCell
	Tables []*stats.Table
}

// Cell returns the matrix entry for a train/eval pair (nil if absent).
func (r *RobustnessResult) Cell(trainW string, trainShards int, evalW string, evalShards int) *RobustnessCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.TrainWorkload == trainW && c.TrainShards == shardKey(trainShards) &&
			c.EvalWorkload == evalW && c.EvalShards == shardKey(evalShards) {
			return c
		}
	}
	return nil
}

// Robustness runs the train×eval matrix in one process over one shared
// ProfileSource: every training run and every transplanted evaluation is
// memoized under its (train spec × eval spec) key, so no pair can collide
// and the whole matrix reuses each training run across eval cells.
func Robustness(o Options, spec RobustnessSpec) (*RobustnessResult, error) {
	if len(spec.Workloads) == 0 {
		return nil, fmt.Errorf("expt: robustness needs at least one workload")
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

	type axis struct {
		w      workload.Workload
		shards int
	}
	var cells []axis
	for _, w := range spec.Workloads {
		for _, n := range spec.Shards {
			cells = append(cells, axis{w, shardKey(n)})
		}
	}

	res := &RobustnessResult{}
	for _, eval := range cells {
		eo := o
		eo.Workload = eval.w
		eo.Shards = eval.shards
		s, err := NewSessionFrom(src, eo)
		if err != nil {
			return nil, err
		}
		base, err := s.MeasureNeed("base", cpus, NeedApp4W)
		if err != nil {
			return nil, fmt.Errorf("baseline for eval %s/s%d: %w", eval.w.Name(), eval.shards, err)
		}
		baseMiss := base.App4W[64].MissRate()
		for _, train := range cells {
			tc := TrainConfig{Workload: train.w, Shards: train.shards}
			m, err := s.measureFor(s.Opt.resolveTrain(tc), spec.Layout, "kbase", cpus, NeedApp4W)
			if err != nil {
				return nil, fmt.Errorf("train %s/s%d eval %s/s%d: %w",
					train.w.Name(), train.shards, eval.w.Name(), eval.shards, err)
			}
			perTxn := 0.0
			if m.Res.Committed > 0 {
				perTxn = float64(m.Res.BusyInstrs) / float64(m.Res.Committed)
			}
			res.Cells = append(res.Cells, RobustnessCell{
				TrainWorkload: train.w.Name(),
				TrainShards:   train.shards,
				EvalWorkload:  eval.w.Name(),
				EvalShards:    eval.shards,
				SelfTrained:   train.w.Name() == eval.w.Name() && train.shards == eval.shards,
				MissRatio:     m.App4W[64].MissRate(),
				BaseMissRatio: baseMiss,
				InstrPerTxn:   perTxn,
			})
		}
	}

	label := func(w string, n int) string { return fmt.Sprintf("%s/s%d", w, n) }
	cols := []string{"train\\eval"}
	for _, c := range cells {
		cols = append(cols, label(c.w.Name(), c.shards))
	}

	miss := stats.NewTable(
		fmt.Sprintf("Robustness matrix: app icache miss ratio %% (64KB/128B/4-way), layout %q (* = self-trained)", spec.Layout),
		cols...)
	txn := stats.NewTable(
		fmt.Sprintf("Robustness matrix: busy instructions per transaction, layout %q (* = self-trained)", spec.Layout),
		cols...)
	for _, train := range cells {
		missRow := []interface{}{label(train.w.Name(), train.shards)}
		txnRow := []interface{}{label(train.w.Name(), train.shards)}
		for _, eval := range cells {
			c := res.Cell(train.w.Name(), train.shards, eval.w.Name(), eval.shards)
			mark := ""
			if c.SelfTrained {
				mark = "*"
			}
			missRow = append(missRow, fmt.Sprintf("%.3f%s", 100*c.MissRatio, mark))
			txnRow = append(txnRow, fmt.Sprintf("%.0f%s", c.InstrPerTxn, mark))
		}
		miss.AddRow(missRow...)
		txn.AddRow(txnRow...)
	}
	miss.Note("off-diagonal entries evaluate a layout trained on a different workload or shard count; baseline ratios and drift in the summary table")

	sum := stats.NewTable("Robustness summary per eval cell",
		"eval cell", "base miss %", "self-trained miss %", "worst transplant miss %", "worst drift", "worst train")
	for _, eval := range cells {
		var self, worst *RobustnessCell
		for i := range res.Cells {
			c := &res.Cells[i]
			if c.EvalWorkload != eval.w.Name() || c.EvalShards != eval.shards {
				continue
			}
			if c.SelfTrained {
				self = c
			} else if worst == nil || c.MissRatio > worst.MissRatio {
				worst = c
			}
		}
		if self == nil {
			continue
		}
		if worst == nil {
			sum.AddRow(label(eval.w.Name(), eval.shards), stats.Pct(self.BaseMissRatio),
				stats.Pct(self.MissRatio), "-", "-", "-")
			continue
		}
		drift := "-"
		if self.MissRatio > 0 {
			drift = fmt.Sprintf("%+.1f%%", 100*(worst.MissRatio/self.MissRatio-1))
		}
		sum.AddRow(label(eval.w.Name(), eval.shards), stats.Pct(self.BaseMissRatio),
			stats.Pct(self.MissRatio), stats.Pct(worst.MissRatio), drift,
			label(worst.TrainWorkload, worst.TrainShards))
	}
	sum.Note("drift = worst transplanted layout's misses over the self-trained layout's; the profile-drift cost of reusing stale layouts")

	res.Tables = []*stats.Table{miss, txn, sum}
	return res, nil
}

// ShardSweepSpec configures the shard-count sweep.
type ShardSweepSpec struct {
	// Shards are the counts to sweep; empty means {1, 2, 4, 8}.
	Shards []int
	// Layouts are the layout names measured at each count; empty means
	// {"base", "all"}.
	Layouts []string
	// FastPath adds the predictive single-shard fast path to the sweep:
	// each sharded count is measured with the fast path off and on over
	// one shared fastpath-capable image, and the table gains the on
	// columns and the on/off deltas. Single-shard rows have no router to
	// skip and report only the off side.
	FastPath bool
	// AutoGC is the group-commit tuning mode the sweep's measurement runs
	// use; the zero value selects the tail-aware machine.AutoGCTargetP99
	// tuner (high shard counts starve fixed windows), unless the options
	// already pin an explicit window, per-commit flushing, or a tuner of
	// their own. NoAutoGC forces fixed windows regardless.
	AutoGC   machine.AutoGCMode
	NoAutoGC bool
	// CPUs overrides the measurement processor count (0 = Options.CPUs).
	CPUs int
}

// resolveGC picks the sweep's group-commit mode: an explicit spec choice
// wins; otherwise options that configure batching themselves are left
// alone, and everything else defaults to the tail-aware p99 tuner.
func (sp ShardSweepSpec) resolveGC(o Options) machine.AutoGCMode {
	switch {
	case sp.NoAutoGC:
		return machine.AutoGCOff
	case sp.AutoGC != machine.AutoGCOff:
		return sp.AutoGC
	case o.AutoGroupCommit != machine.AutoGCOff:
		return o.AutoGroupCommit
	case o.GroupCommitWindowInstr > 0 || o.PerCommitLogFlush:
		return machine.AutoGCOff
	}
	return machine.AutoGCTargetP99
}

// sweepRow aggregates one (shards, layout) measurement for the table.
type sweepRow struct {
	perTxn, perM float64
	m            *Measure
}

func newSweepRow(m *Measure, cpus int) sweepRow {
	r := sweepRow{m: m}
	if m.Res.Committed > 0 {
		r.perTxn = float64(m.Res.BusyInstrs) / float64(m.Res.Committed)
	}
	if wall := m.Res.BusyInstrs + m.Res.IdleInstrs; wall > 0 {
		r.perM = float64(m.Res.Committed) / (float64(wall) / 1e6) * float64(cpus)
	}
	return r
}

// delta renders the relative change from off to on (negative = improvement
// for cost metrics).
func delta(off, on float64) string {
	if off == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(on/off-1))
}

// ShardSweepTable sweeps the shard count over the given workload,
// self-training at each count, and reports the speed levers the router
// adds: throughput (busy instructions per transaction and committed txns
// per million instruction-times of wall clock), blocked-on-log time, and
// app/kernel miss ratios. With spec.FastPath
// every sharded count is measured twice — fast path off and on — over one
// shared image that carries the predictor models, so the off/on pair
// differs only in the runtime toggle and the table's delta columns isolate
// what skipping the router and coordinator buys.
func ShardSweepTable(o Options, spec ShardSweepSpec) (*stats.Table, error) {
	shardCounts := spec.Shards
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	layouts := spec.Layouts
	if len(layouts) == 0 {
		layouts = []string{"base", "all"}
	}
	cpus := spec.CPUs
	if cpus == 0 {
		cpus = o.CPUs
	}
	o.AutoGroupCommit = spec.resolveGC(o)
	if o.AutoGroupCommit != machine.AutoGCOff {
		o.GroupCommitWindowInstr = 0
		o.PerCommitLogFlush = false
	}
	o.PredictFastPath = spec.FastPath
	src, err := NewProfileSource(o)
	if err != nil {
		return nil, err
	}

	title := fmt.Sprintf("Shard sweep: %s, %d cpus, group commit %s (self-trained per shard count)",
		src.opt.Workload.Name(), cpus, o.AutoGroupCommit)
	cols := []string{"shards", "layout", "instr/txn", "txns/Minstr", "blocked-on-log", "log flushes", "cross-shard", "app miss %", "kern miss %"}
	if spec.FastPath {
		title = fmt.Sprintf("Shard sweep: %s, %d cpus, group commit %s, fast path off vs on (self-trained per shard count)",
			src.opt.Workload.Name(), cpus, o.AutoGroupCommit)
		cols = []string{"shards", "layout",
			"instr/txn off", "instr/txn on", "Δinstr",
			"p99 off", "p99 on", "Δp99",
			"blocked-on-log", "predicted", "mispredicted", "cross-shard"}
	}
	t := stats.NewTable(title, cols...)
	// The fast-path columns come from Res alone; the plain sweep adds the
	// app and kernel miss ratios.
	need := NeedApp4W | NeedKern4W
	if spec.FastPath {
		need = NeedNone
	}

	for _, n := range shardCounts {
		eo := o
		eo.Shards = n
		eo.PredictFastPath = false
		off, err := NewSessionFrom(src, eo)
		if err != nil {
			return nil, err
		}
		var on *Session
		if spec.FastPath && shardKey(n) > 1 {
			po := eo
			po.PredictFastPath = true
			if on, err = NewSessionFrom(src, po); err != nil {
				return nil, err
			}
		}
		for _, layout := range layouts {
			mOff, err := off.MeasureNeed(layout, cpus, need)
			if err != nil {
				return nil, fmt.Errorf("shards=%d layout=%s: %w", n, layout, err)
			}
			rOff := newSweepRow(mOff, cpus)
			if !spec.FastPath {
				t.AddRow(shardKey(n), layout,
					fmt.Sprintf("%.0f", rOff.perTxn),
					fmt.Sprintf("%.2f", rOff.perM),
					mOff.Res.LogBlockedInstr, mOff.Res.LogFlushes, mOff.Res.CrossShard,
					stats.Pct(mOff.App4W[64].MissRate()), stats.Pct(mOff.Kern4W[64].MissRate()))
				continue
			}
			if on == nil {
				t.AddRow(shardKey(n), layout,
					fmt.Sprintf("%.0f", rOff.perTxn), "-", "-",
					mOff.Res.Latency.P99, "-", "-",
					mOff.Res.LogBlockedInstr, "-", "-", mOff.Res.CrossShard)
				continue
			}
			mOn, err := on.MeasureNeed(layout, cpus, need)
			if err != nil {
				return nil, fmt.Errorf("shards=%d layout=%s fastpath: %w", n, layout, err)
			}
			rOn := newSweepRow(mOn, cpus)
			t.AddRow(shardKey(n), layout,
				fmt.Sprintf("%.0f", rOff.perTxn), fmt.Sprintf("%.0f", rOn.perTxn),
				delta(rOff.perTxn, rOn.perTxn),
				mOff.Res.Latency.P99, mOn.Res.Latency.P99,
				delta(float64(mOff.Res.Latency.P99), float64(mOn.Res.Latency.P99)),
				mOn.Res.LogBlockedInstr, mOn.Res.Predicted, mOn.Res.Mispredicted, mOn.Res.CrossShard)
		}
	}
	if spec.FastPath {
		t.Note("on-side runs share the off side's image and seed; Δ columns are on/off-1, negative = the fast path wins")
	} else {
		t.Note("per-shard group commit and the router split the log force across engines; blocked-on-log falls as shards rise")
	}
	return t, nil
}

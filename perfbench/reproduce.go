package main

import (
	"fmt"
	"io"
	"time"

	"codelayout/internal/expt"
)

// reproduceOptions is the paper's figure set at the quick configuration
// (tpcb, one engine), or its tiny self-test cut.
func reproduceOptions(tiny bool) expt.Options {
	o := expt.QuickOptions()
	o.Seed = imageSeed
	if tiny {
		o.Transactions, o.WarmupTxns, o.Train.Txns = 120, 20, 150
		o.ProcsPerCPU = 4
		o.LibScale, o.ColdWords, o.KernColdWords = 0.2, 200_000, 60_000
	}
	return o
}

// reproduceLayouts and reproduceMeasures are what the figure set reads; the
// traced run's layer probe builds and measures them one span each.
var (
	reproduceLayouts  = []string{"all", "base", "porder", "chain", "chain+split", "chain+porder", "ipchain", "fusion", "hotcold", "cfa", "dcpi-all"}
	reproduceMeasures = []struct {
		layout, kern string
		oneCPU       bool
	}{
		{"all", "kbase", false}, // the headline
		{"base", "kbase", false}, {"porder", "kbase", false}, {"chain", "kbase", false},
		{"chain+split", "kbase", false}, {"chain+porder", "kbase", false},
		{"ipchain", "kbase", false}, {"fusion", "kbase", false}, {"hotcold", "kbase", false},
		{"cfa", "kbase", false}, {"dcpi-all", "kbase", false}, {"all", "kopt", false},
		{"base", "kbase", true}, {"porder", "kbase", true}, {"chain", "kbase", true},
		{"chain+split", "kbase", true}, {"chain+porder", "kbase", true}, {"all", "kbase", true},
		{"ipchain", "kbase", true}, {"fusion", "kbase", true},
	}
)

// runReproduce times the figure set: set-up, then every experiment through
// Session.Run with its tables rendered, repeated for the run's budget on
// fresh sources. The headline layout is "all".
func runReproduce(b *bench) error {
	img := reproduceOptions(b.tiny)
	eval := img
	eval.Seed = b.seed // the measured clients
	var sess *expt.Session
	setup := func() (err error) { sess, err = b.setupSession(0, img, eval); return err }
	rep := func() error {
		if err := timed(&b.setup, setup); err != nil {
			return err
		}
		return timed(&b.job, func() error { b.figures(0, "expt.run", sess); return nil })
	}
	var headRun time.Duration
	if b.tr == nil {
		if err := b.repeat(rep); err != nil {
			return err
		}
	} else {
		if err := b.untraced(rep); err != nil { // the untraced side of trace.overhead_pct
			return err
		}
		var err error
		if sess, headRun, err = b.tracedReproduce(img, eval); err != nil {
			return err
		}
	}
	err := b.untraced(func() error {
		return b.setups(func() error { _, err := b.setupSession(0, img, eval); return err })
	})
	if err != nil {
		return err
	}

	headTxns := 12_000 // the gain over base is a small difference: measure it long
	if b.tiny {
		headTxns = 1200
	}
	h, err := b.batteryHeadline(sess, "all", headTxns, headRun)
	if err != nil {
		return err
	}
	b.addHeadline("all", h)
	b.memoMetrics(sess.MemoStats())
	if err := b.layoutMetrics(sess, "all"); err != nil {
		return err
	}
	if b.tr != nil {
		b.spanMetrics()
	}
	b.noSearch()
	return nil
}

// figures runs every experiment of the paper's figure set through
// Session.Run and renders its tables, one span each, counting each
// experiment as an operation.
func (b *bench) figures(parent int, span string, sess *expt.Session) {
	for _, id := range expt.IDs() {
		err := b.tr.do(parent, span, id, func(int) error {
			tables, err := sess.Run(id)
			for _, t := range tables {
				t.Render(io.Discard)
			}
			return err
		})
		b.op("experiment "+id, err)
	}
}

// tracedReproduce is the traced rep, the same set-up and figure set as the
// untraced one, followed by a layer probe: on a fresh source, every layout
// build and measurement the figures read is driven as a span of its own,
// one at a time, and then the figures run again with the memo warm, which
// leaves only table building and rendering. It returns the probe's session
// and the headline measurement's host time.
func (b *bench) tracedReproduce(img, eval expt.Options) (*expt.Session, time.Duration, error) {
	root := b.tr.begin(0, "bench.rep", "traced")
	start := time.Now()
	sess, err := b.setupSession(root, img, eval)
	if err == nil {
		b.figures(root, "expt.run", sess)
	}
	b.tr.end(root)
	if err != nil {
		return nil, 0, err
	}
	appBuild, _ := b.tr.total("appmodel.build") // traced-only work
	b.overhead(time.Since(start).Seconds() - appBuild)

	probe := b.tr.begin(0, "bench.probe", "each layout and measurement the figures read")
	defer b.tr.end(probe)
	if sess, err = b.setupSession(probe, img, eval); err != nil {
		return nil, 0, err
	}
	for _, name := range reproduceLayouts {
		err := b.tr.do(probe, "core.layout", name, func(int) error { _, err := sess.Layout(name); return err })
		if !b.op("layout "+name, err) {
			return nil, 0, err
		}
	}
	err = b.tr.do(probe, "core.layout", "kopt", func(int) error { _, err := sess.KernLayout("kopt"); return err })
	if !b.op("kernel layout kopt", err) {
		return nil, 0, err
	}
	var headRun time.Duration
	for i, m := range reproduceMeasures {
		cpus := eval.CPUs
		if m.oneCPU {
			cpus = 1
		}
		what := fmt.Sprintf("%s/%s/%dcpu", m.layout, m.kern, cpus)
		start := time.Now()
		err := b.tr.do(probe, "expt.measure", what, func(int) error { _, err := sess.MeasureKern(m.layout, m.kern, cpus); return err })
		if !b.op("measure "+what, err) {
			return nil, 0, err
		}
		if i == 0 {
			headRun = time.Since(start)
		}
	}
	b.figures(probe, "stats.render", sess)
	renderS, _ := b.tr.total("stats.render")
	b.host["stats.render_s"] = metric{renderS, "s"}
	return sess, headRun, nil
}

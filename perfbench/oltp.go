package main

import (
	"reflect"
	"time"

	"codelayout/internal/cache"
	"codelayout/internal/expt"
	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/trace"
)

// oltpOptions is sharded order-entry: 4 shards, 15% cross-shard, the
// predictive fast path, the p99 group-commit tuner and fetch-stall 40.
func oltpOptions(tiny bool) expt.Options {
	o := expt.QuickOptions()
	o.Seed = imageSeed
	wl := ordere.New().QuickScale().(*ordere.Workload)
	wl.CrossShardPct = 15
	o.Workload = wl
	o.Shards = 4
	o.PredictFastPath = true
	o.AutoGroupCommit = machine.AutoGCTargetP99
	o.FetchStallPenaltyInstr = 40
	o.Transactions, o.WarmupTxns, o.Train.Txns = 2000, 200, 1000
	if tiny {
		o.Transactions, o.WarmupTxns, o.Train.Txns = 1200, 100, 300
		o.LibScale, o.ColdWords, o.KernColdWords = 0.2, 200_000, 60_000
	}
	return o
}

// oltpLayouts are the two layouts every rep runs under one seed; fusion is
// the headline.
var oltpLayouts = []string{"base", "fusion"}

// runOLTP times machine runs with no battery: each rep trains and builds
// the fusion layout in set-up, then runs base and fusion with only one
// 64KB/128B/4-way cache on the application stream, as oltpbench does.
func runOLTP(b *bench) error {
	img := oltpOptions(b.tiny)
	eval := img
	eval.Seed = b.seed // the measured clients
	setup := func(parent int) (*expt.Session, error) {
		sess, err := b.setupSession(parent, img, eval)
		if err != nil {
			return nil, err
		}
		return sess, b.tr.do(parent, "core.layout", "fusion", func(int) error { _, err := sess.Layout("fusion"); return err })
	}
	var sess *expt.Session
	runs := make(map[string]runResult)
	caches := make(map[string]*cache.ICache)
	job := func(parent int) error {
		for _, layout := range oltpLayouts {
			cfg, err := replicaConfig(sess, layout, "kbase", eval.CPUs)
			if err != nil {
				return err
			}
			ic := cache.New(l1iConfig)
			cfg.Sinks = []trace.Sink{trace.AppOnly(ic)}
			var rr runResult
			err = b.tr.do(parent, "machine.run", layout+" with one cache", func(int) (err error) { rr, err = runMachine(cfg); return err })
			if !b.op("run "+layout, err) {
				return err
			}
			ic.Finalize()
			runs[layout], caches[layout] = rr, ic
		}
		return nil
	}
	rep := func() error {
		if err := timed(&b.setup, func() (err error) { sess, err = setup(0); return err }); err != nil {
			return err
		}
		return timed(&b.job, func() error { return job(0) })
	}
	if b.tr == nil {
		if err := b.repeat(rep); err != nil {
			return err
		}
	} else {
		if err := b.untraced(rep); err != nil { // the untraced side of trace.overhead_pct
			return err
		}
		root := b.tr.begin(0, "bench.rep", "traced")
		start := time.Now()
		var err error
		if sess, err = setup(root); err == nil {
			err = job(root)
		}
		b.tr.end(root)
		if err != nil {
			return err
		}
		appBuild, _ := b.tr.total("appmodel.build") // traced-only work
		b.overhead(time.Since(start).Seconds() - appBuild)
	}
	if err := b.untraced(func() error { return b.setups(func() error { _, err := setup(0); return err }) }); err != nil {
		return err
	}

	fusion := runs["fusion"]
	cfg, err := replicaConfig(sess, "fusion", "kbase", eval.CPUs)
	if err != nil {
		return err
	}
	if err := b.sinkFreeReplica(cfg, fusion.res, fusion.wall); err != nil {
		return err
	}
	appL, err := sess.Layout("fusion")
	if err != nil {
		return err
	}
	h := &headline{res: fusion.res, cells: fusion.cells, base: runs["base"].res, l1i: caches["fusion"].Stats(),
		layers: b.layerSink(sess.AppImageFor("fusion"), appL), txnsWant: eval.Transactions}
	cfg.Sinks = []trace.Sink{h.layers}
	attributed, err := runMachine(cfg)
	if !b.op("attributed replica", err) {
		return err
	}
	b.op("attributed replica matches the measured Result", check(reflect.DeepEqual(attributed.res, fusion.res),
		"attributed %+v, measured %+v", attributed.res, fusion.res))
	b.addHeadline("fusion", h)
	if err := b.layoutMetrics(sess, "fusion"); err != nil {
		return err
	}
	b.memoMetrics(sess.MemoStats())
	if b.tr != nil {
		b.spanMetrics()
		b.host["stats.render_s"] = metric{0, "s"}
	}
	b.noSearch()
	return nil
}

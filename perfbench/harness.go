package main

import (
	"fmt"
	"reflect"
	"time"

	"codelayout/internal/appmodel"
	"codelayout/internal/cache"
	"codelayout/internal/codegen"
	"codelayout/internal/expt"
	"codelayout/internal/isa"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/program"
	"codelayout/internal/trace"
	"codelayout/internal/workload"
)

// imageSeed fixes the generated program images. With the training seed
// QuickOptions fixes, it fixes the program under test, layouts included:
// the benchmark seed varies only the measured transaction streams.
const imageSeed = 2001

// setupSession builds a profile source over the fixed image and trains the
// session's default profile: the set-up every workload times. The traced
// run also builds the two images on their own first, so the image build
// shows as a span of its own.
func (b *bench) setupSession(parent int, img, eval expt.Options, extra ...workload.Workload) (*expt.Session, error) {
	if b.tr != nil {
		err := b.tr.do(parent, "appmodel.build", "app and kernel images", func(int) error {
			_, err := appmodel.Build(appmodel.Config{
				Seed: img.Seed, LibScale: img.LibScale, ColdWords: img.ColdWords,
				Workload: img.Workload, ExtraWorkloads: extra, FastPath: img.PredictFastPath,
			})
			if err != nil {
				return err
			}
			_, err = kernel.Build(kernel.Config{Seed: img.Seed + 1, ColdWords: img.KernColdWords})
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	var src *expt.ProfileSource
	err := b.tr.do(parent, "expt.source", "", func(int) (err error) {
		src, err = expt.NewProfileSource(img, extra...)
		return err
	})
	if err != nil {
		return nil, err
	}
	sess, err := expt.NewSessionFrom(src, eval)
	if err != nil {
		return nil, err
	}
	return sess, b.tr.do(parent, "expt.train", sess.TrainSpec(), func(int) error { return sess.Train() })
}

// untraced runs f with tracing off, for the untraced parts of a traced run.
func (b *bench) untraced(f func() error) error {
	tr := b.tr
	b.tr = nil
	defer func() { b.tr = tr }()
	return f()
}

// setups times setup until at least minSetupRuns set-ups are sampled and,
// for cheap set-ups, until setupBudget seconds of them are, up to
// maxSetupRuns.
func (b *bench) setups(setup func() error) error {
	for n := len(b.setup.cpu); n < minSetupRuns || (sum(b.setup.wall) < setupBudget && n < maxSetupRuns); n = len(b.setup.cpu) {
		if err := timed(&b.setup, setup); err != nil {
			return err
		}
	}
	return nil
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// tailQuantile is the tail percentile every headline reports: each
// headline run is long enough to keep ten samples beyond it.
const tailQuantile = 0.99

// batteryHeadline serves the workloads whose job measures with the full
// battery. It checks the memoized measurement of layout against a sink-free
// replica of the same machine config, which must reproduce its Result
// exactly, then runs the headline (see longHeadline). headRun, when
// nonzero, is the host time the measurement took.
func (b *bench) batteryHeadline(sess *expt.Session, layout string, headTxns int, headRun time.Duration) (*headline, error) {
	cpus := sess.Opt.CPUs
	m, err := sess.Measure(layout, cpus)
	if !b.op("measure "+layout, err) {
		return nil, err
	}
	cfg, err := replicaConfig(sess, layout, "kbase", cpus)
	if err != nil {
		return nil, err
	}
	if err := b.sinkFreeReplica(cfg, m.Res, headRun); err != nil {
		return nil, err
	}
	h, err := b.longHeadline(sess, layout, headTxns)
	if err != nil {
		return nil, err
	}
	h.meas = m
	return h, nil
}

// sinkFreeReplica runs cfg with no sinks; its Result must equal want, the
// Result of the same config run with sinks. In the traced run it also gives
// the machine's own host cost, and with headRun the sinks' cost as the
// difference.
func (b *bench) sinkFreeReplica(cfg machine.Config, want machine.Result, headRun time.Duration) error {
	cfg.Sinks, cfg.DataSinks = nil, nil
	var bare runResult
	err := b.tr.do(0, "machine.run", "sink-free replica", func(int) (err error) { bare, err = runMachine(cfg); return err })
	if !b.op("sink-free replica", err) {
		return err
	}
	b.op("sink-free replica matches the measured Result", check(reflect.DeepEqual(bare.res, want),
		"replica %+v, measured %+v", bare.res, want))
	if b.tr != nil {
		run := bare.wall.Seconds()
		b.host["machine.run_s"] = metric{run, "s"}
		b.host["machine.ns_per_instr"] = metric{1e9 * run / float64(max(bare.res.BusyInstrs, 1)), "ns"}
		b.bases["machine.ns_per_instr"] = fmt.Sprintf("%d measured busy instructions", bare.res.BusyInstrs)
		b.host["expt.sink_s"] = metric{headRun.Seconds() - run, "s"}
		b.bases["expt.sink_s"] = "the measured run with its sinks, minus machine.run_s"
	}
	return nil
}

// longHeadline runs layout and base for txns measured transactions under
// the session's machine config, the layout with a per-CPU app cache at
// 64KB/128B/4-way (the App4W[64] geometry) and the layer-attribution sink.
// The simulated-clock metrics are read off these two runs.
func (b *bench) longHeadline(sess *expt.Session, layout string, txns int) (*headline, error) {
	cfgs := make(map[string]machine.Config)
	for _, name := range []string{layout, "base"} {
		cfg, err := replicaConfig(sess, name, "kbase", sess.Opt.CPUs)
		if err != nil {
			return nil, err
		}
		cfg.Transactions = txns
		cfgs[name] = cfg
	}
	appL, err := sess.Layout(layout)
	if err != nil {
		return nil, err
	}
	h := &headline{txnsWant: txns, layers: b.layerSink(sess.AppImageFor(layout), appL)}
	caches := newPerCPUCache(cfgs[layout].CPUs)
	cfg := cfgs[layout]
	cfg.Sinks = []trace.Sink{trace.AppOnly(caches), h.layers}
	run, err := runMachine(cfg)
	if !b.op("headline run", err) {
		return nil, err
	}
	base, err := runMachine(cfgs["base"])
	if !b.op("headline base run", err) {
		return nil, err
	}
	h.res, h.cells, h.base, h.l1i = run.res, run.cells, base.res, caches.stats()
	return h, nil
}

// layerSink returns an attribution sink for the layout; the traced run's
// sinks also record the fetch stream and report the cache replay cost.
func (b *bench) layerSink(img *codegen.Image, l *program.Layout) *layerSink {
	if b.tr == nil {
		return newLayerSink(img, l, 0)
	}
	return newLayerSink(img, l, recordCap)
}

// l1iConfig is the app L1I geometry the headline's miss ratio is read at:
// 64KB/128B/4-way, the battery's App4W[64] and oltpbench's cache.
var l1iConfig = cache.Config{SizeBytes: 64 << 10, LineBytes: 128, Assoc: 4}

// perCPUCache is one app cache per simulated CPU, merged when read.
type perCPUCache []*cache.ICache

func newPerCPUCache(cpus int) perCPUCache {
	p := make(perCPUCache, cpus)
	for i := range p {
		p[i] = cache.New(l1iConfig)
	}
	return p
}

// Fetch implements trace.Sink.
func (p perCPUCache) Fetch(r trace.FetchRun) { p[min(int(r.CPU), len(p)-1)].Fetch(r) }

func (p perCPUCache) stats() *cache.Stats {
	merged := cache.NewStats(p[0].Config())
	for _, c := range p {
		c.Finalize()
		merged.Merge(c.Stats())
	}
	return merged
}

// replayNs replays the recorded application fetch stream through one
// 64KB/128B/4-way cache and returns host nanoseconds per fetch run.
func replayNs(s *layerSink) float64 {
	if len(s.record) == 0 {
		return 0
	}
	c := cache.New(l1iConfig)
	start := time.Now()
	for _, r := range s.record {
		c.Fetch(r)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(s.record))
}

// addHeadline runs the headline's conservation checks and stores its
// simulated-clock metrics.
func (b *bench) addHeadline(layout string, h *headline) {
	b.headline = layout
	if b.tr != nil {
		b.host["cache.ns_per_fetch"] = metric{replayNs(h.layers), "ns"}
		b.bases["cache.ns_per_fetch"] = fmt.Sprintf("%d recorded app fetch runs", len(h.layers.record))
	}
	for _, err := range h.checks() {
		b.op("conservation check", err)
	}
	for name, m := range h.simMetrics() {
		b.sim[name] = m
	}
}

// memoMetrics stores a session's memo counters.
func (b *bench) memoMetrics(ms expt.MemoStats) {
	b.host["expt.measure_runs"] = metric{float64(ms.Measure.Misses), "count"}
	b.host["expt.layout_runs"] = metric{float64(ms.Layout.Misses), "count"}
	b.host["expt.train_runs"] = metric{float64(ms.Train.Misses), "count"}
	calls := ms.Measure.Hits + ms.Measure.Misses
	b.host["expt.measure_hit_ratio"] = metric{ratio(ms.Measure.Hits, calls), "fraction"}
	b.bases["expt.measure_hit_ratio"] = fmt.Sprintf("%d measure calls", calls)
}

// spanMetrics stores the span totals of the set-up, layout and measure
// layers.
func (b *bench) spanMetrics() {
	b.host["appmodel.build_s"] = metric{b.tr.mean("appmodel.build"), "s"}
	b.host["expt.train_s"] = metric{b.tr.mean("expt.train"), "s"}
	layoutS, layouts := b.tr.total("core.layout")
	b.host["core.layout_s"] = metric{layoutS, "s"}
	b.bases["core.layout_s"] = fmt.Sprintf("%d layout calls", layouts)
	measureS, measures := b.tr.total("expt.measure")
	b.host["expt.measure_s"] = metric{measureS, "s"}
	b.bases["expt.measure_s"] = fmt.Sprintf("%d measure calls", measures)
}

// layoutMetrics stores the headline layout's text size and clone growth.
func (b *bench) layoutMetrics(sess *expt.Session, headline string) error {
	l, err := sess.Layout(headline)
	if err != nil {
		return err
	}
	var cloned, cloneKB float64
	if rep := sess.Report(headline); rep != nil {
		cloned, cloneKB = float64(rep.ClonedProcs), float64(rep.CloneWords*isa.WordBytes)/1024
	}
	b.sim["core.text_kb"] = metric{float64(l.TotalBytes()) / 1024, "KB"}
	b.sim["core.cloned_procs"] = metric{cloned, "count"}
	b.sim["core.clone_kb"] = metric{cloneKB, "KB"}
	return nil
}

// overhead stores trace.overhead_pct: the traced rep's host time against
// the untraced rep's, both set-up plus job.
func (b *bench) overhead(traced float64) {
	untraced := b.setup.wall[0] + b.job.wall[0]
	b.host["trace.overhead_pct"] = metric{100 * (traced - untraced) / untraced, "%"}
	b.bases["trace.overhead_pct"] = fmt.Sprintf("the untraced set-up plus job, %.3f s", untraced)
}

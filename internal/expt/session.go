// Package expt is the experiment harness: it regenerates every table and
// figure of the paper's evaluation from the simulated system. A
// ProfileSource owns the built images and the memoized training runs; a
// Session evaluates layouts built from those profiles under its own
// measurement configuration. Training and evaluation are decoupled: a
// session can measure layouts trained under a different workload or shard
// count (Session.TrainFrom / the *From methods), and every memo is keyed by
// (train spec × eval spec), so mismatched pairs coexist in one session.
package expt

import (
	"fmt"
	"runtime"
	"sync"

	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/pstore"
	"codelayout/internal/reclayout"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
)

// Options configures a session: the measurement (evaluation) half of the
// configuration, plus the default TrainConfig the session's profiles come
// from. Train fields left zero inherit the matching evaluation fields, so a
// plain Options trains and evaluates under one configuration, as the paper
// does.
type Options struct {
	Seed int64

	// Train is the default training configuration: the profile every
	// layout is built from unless a *From method (or TrainFrom) overrides
	// it. Zero fields inherit from the evaluation side — Workload,
	// Shards, CPUs, WarmupTxns from the same-named fields here, Seed from
	// Seed, Txns from Transactions.
	Train TrainConfig

	CPUs        int
	ProcsPerCPU int

	// Shards is the partitioned-engine count behind the shard router; 0 or
	// 1 runs the single shared engine (see machine.Config.Shards).
	Shards int
	// GroupCommitWindowInstr is the per-shard group-commit batching window
	// (0 = flush as soon as a leader arrives; see machine.Config).
	GroupCommitWindowInstr uint64
	// PerCommitLogFlush disables group commit (the baseline the
	// group-commit comparisons run against).
	PerCommitLogFlush bool
	// AutoGroupCommit auto-tunes the per-shard windows from warmup
	// observations (machine.AutoGCFlushCount or machine.AutoGCTargetP99);
	// it keys the measurement memos, so runs under different tuning modes
	// never collide.
	AutoGroupCommit machine.AutoGCMode
	// PredictFastPath enables the predictive single-shard fast path (see
	// machine.Config.PredictFastPath) on the session's sharded measurement
	// runs, adds the predictor models to the source's app image, and keys
	// the measurement memos, so fast-path-on and -off runs never collide.
	// Single-shard measurements ignore it (there is no router to skip).
	PredictFastPath bool

	Transactions int
	WarmupTxns   int

	// RecordLayout selects the physical record layout the measured machine
	// installs before the workload loads: "" or "interleaved" keeps each
	// table's declared schema order; "grouped" asks reclayout to regroup
	// each table's hot fields contiguously at the record head, driven by
	// the field-access profile of the session's training run (falling back
	// to the schema's static hot hints when the profile predates field
	// tallying). Training itself always runs interleaved — the baseline —
	// so the two regimes share one training memo; the setting keys the
	// measurement memos, so interleaved and grouped runs never collide.
	RecordLayout string

	// FetchStallPenaltyInstr charges each L1 instruction-cache miss this
	// many instruction-times of stall on the fetching CPU's clock (see
	// machine.Config.FetchStallPenaltyInstr). 0 keeps the pure
	// fetch-bandwidth clock. It keys the measurement memos: latency
	// comparisons between layouts (fusion vs ipchain) need a non-zero
	// penalty for locality to show up in per-transaction latency at all.
	// The machine's inline L1I has the geometry of the battery's SimOS L1I
	// (Measure.HW21264) and fetches the same combined per-CPU stream, so at
	// WarmupTxns 0 Res.FetchStallInstr / penalty equals HW21264.Misses. With
	// warmup they differ: warmup fetches warm the inline cache, while the
	// sinks observe only the measured phase (quick tpcb base with 40 warmup
	// transactions: 113240 stall misses against 114199).
	FetchStallPenaltyInstr uint64

	// Workload is the transaction mix every measured run in the session
	// uses; nil defaults to TPC-B at paper scale. Callers replacing the
	// workload choose its scale: QuickOptions quick-scales only its own
	// default, so pass w.QuickScale() (or a custom small scale) for quick
	// sessions.
	Workload      workload.Workload
	LibScale      float64
	ColdWords     int
	KernColdWords int

	// DCPIPeriod is the sampling period for the DCPI-profile ablation.
	DCPIPeriod uint64

	// ProfileStore, when non-nil, backs the source's training memo with a
	// persistent profile store: training runs whose key (resolved train
	// spec, training-relevant options, and the content fingerprints of both
	// program images) is already in the store are loaded instead of re-run,
	// and fresh runs are written back. Profiles are exact, so a store hit
	// yields bit-identical layouts and measurements to retraining.
	ProfileStore *pstore.Store

	// Quick shrinks the workload and image for fast CI/bench runs while
	// keeping every shape qualitatively intact.
	Quick bool
}

func defaultWorkload() workload.Workload { return tpcb.New() }

// DefaultOptions returns the paper-scale configuration: 4 processors, 8
// server processes each, 40 branches, 500 measured transactions, profiles
// trained on a separate 2000-transaction run with a different seed.
func DefaultOptions() Options {
	return Options{
		Seed:  2001,
		Train: TrainConfig{Seed: 1998, Txns: 2000},
		CPUs:  4, ProcsPerCPU: 8,
		Transactions: 500, WarmupTxns: 100,
		Workload: tpcb.New(),
		LibScale: 1.0, ColdWords: 6_400_000, KernColdWords: 1_400_000,
		DCPIPeriod: 256,
	}
}

// QuickOptions returns a shrunken configuration for tests and default
// bench runs. The workload shrinks through its own QuickScale, so Quick
// works for any workload.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Quick = true
	o.CPUs = 2
	o.ProcsPerCPU = 6
	o.Transactions = 150
	o.WarmupTxns = 40
	o.Train.Txns = 400
	o.Workload = o.Workload.QuickScale()
	o.LibScale = 0.4
	o.ColdWords = 900_000
	o.KernColdWords = 250_000
	return o
}

// resolveTrain fills tc's zero fields: first from the options' default
// train config, then from the evaluation side. The result is fully
// resolved — its Spec() is a stable memo key.
func (o Options) resolveTrain(tc TrainConfig) TrainConfig {
	d := o.Train
	if tc.Workload == nil {
		tc.Workload = d.Workload
	}
	if tc.Workload == nil {
		tc.Workload = o.Workload
	}
	if tc.Seed == 0 {
		tc.Seed = d.Seed
	}
	if tc.Seed == 0 {
		tc.Seed = o.Seed
	}
	if tc.Shards == 0 {
		tc.Shards = d.Shards
	}
	if tc.Shards == 0 {
		tc.Shards = o.Shards
	}
	if tc.Txns == 0 {
		tc.Txns = d.Txns
	}
	if tc.Txns == 0 {
		tc.Txns = o.Transactions
	}
	if tc.CPUs == 0 {
		tc.CPUs = d.CPUs
	}
	if tc.CPUs == 0 {
		tc.CPUs = o.CPUs
	}
	if tc.WarmupTxns == 0 {
		tc.WarmupTxns = d.WarmupTxns
	}
	if tc.WarmupTxns == 0 {
		tc.WarmupTxns = o.WarmupTxns
	}
	return tc
}

// Session owns the evaluation half of an experiment — memoized measurement
// runs over the profile source's images and layouts. All methods are safe
// for concurrent use except TrainFrom: the memo maps are mutex-guarded and
// in-flight measurement runs are deduplicated, so MeasureBatch can fan
// measurement runs out across a worker pool. Every memo is keyed by the
// training spec as well as the layout name, so layouts trained under
// different configs never collide; layouts themselves are memoized on the
// shared ProfileSource, so sessions of one source never rebuild them.
type Session struct {
	Opt Options

	src      *ProfileSource
	defTrain TrainConfig // resolved default training config

	mu       sync.Mutex // guards the maps below
	measures map[measKey]*Measure
	measErr  map[measKey]error
	inflight map[measKey]chan struct{}

	measHits, measMisses uint64 // measurement memo counters (MemoStats)
}

// MemoCounters reports one memo map's traffic: Hits answered from cache,
// Misses that executed real work (a simulation run, a layout build, a
// training run), and Entries currently memoized. A waiter that blocked on an
// in-flight run counts as a hit — it executed nothing.
type MemoCounters struct {
	Hits, Misses, Entries uint64
}

// MemoStats is the session's memo-layer report card: the measurement memo
// (this session's) plus the layout and training memos (shared with every
// session of the same ProfileSource). Search runs assert on it to prove
// population evaluation actually dedups — executed measurements must stay
// strictly below the requested genome evaluations.
type MemoStats struct {
	Measure MemoCounters
	Layout  MemoCounters
	Train   MemoCounters
}

// MemoStats returns the session's memo counters (see MemoStats type).
func (s *Session) MemoStats() MemoStats {
	train, layout := s.src.memoStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return MemoStats{
		Measure: MemoCounters{Hits: s.measHits, Misses: s.measMisses, Entries: uint64(len(s.measures))},
		Layout:  layout,
		Train:   train,
	}
}

// layoutKey identifies a built layout: the resolved train spec it was
// trained from plus the layout's identity. Baselines carry an empty train
// spec — they depend on no profile.
type layoutKey struct {
	train string
	layoutID
}

type measKey struct {
	train     string
	workload  string
	layout    layoutID
	kern      string
	reclayout string
	cpus      int
	shards    int
	gcWindow  uint64
	perCommit bool
	gcMode    machine.AutoGCMode
	fastPath  bool
	stall     uint64
}

// NewSession builds a private profile source (images and baseline layouts)
// and the session over it.
func NewSession(o Options) (*Session, error) {
	if o.Workload == nil {
		o.Workload = defaultWorkload()
	}
	src, err := NewProfileSource(o)
	if err != nil {
		return nil, err
	}
	return NewSessionFrom(src, o)
}

// NewSessionFrom builds a session that borrows src's images and training
// memo instead of building its own. Sessions sharing one source evaluate
// over one program, so a layout trained by any of them is portable to all
// of them; o's evaluation workload must be covered by the source's image.
// Image-shape fields of o (Seed, LibScale, ColdWords, KernColdWords,
// Workload models) are ignored in favor of the source's.
func NewSessionFrom(src *ProfileSource, o Options) (*Session, error) {
	if o.Workload == nil {
		o.Workload = src.opt.Workload
	}
	if !src.Covers(o.Workload.Name()) {
		return nil, fmt.Errorf("expt: eval workload %q is not modeled in the source image (covers %v); list it in NewProfileSource",
			o.Workload.Name(), src.WorkloadNames())
	}
	switch o.RecordLayout {
	case "", "interleaved", "grouped":
	default:
		return nil, fmt.Errorf("expt: RecordLayout = %q; must be \"interleaved\" or \"grouped\" (empty selects interleaved)", o.RecordLayout)
	}
	if o.PredictFastPath && shardKey(o.Shards) > 1 && src.appImg.Fns["predict_check"] == nil {
		return nil, fmt.Errorf("expt: PredictFastPath needs the predictor models in the source image; build the ProfileSource with Options.PredictFastPath set")
	}
	s := &Session{
		Opt:      o,
		src:      src,
		defTrain: o.resolveTrain(TrainConfig{}),
		measures: make(map[measKey]*Measure),
		measErr:  make(map[measKey]error),
		inflight: make(map[measKey]chan struct{}),
	}
	return s, nil
}

// Source exposes the session's profile source (for sharing with further
// sessions — see NewSessionFrom).
func (s *Session) Source() *ProfileSource { return s.src }

// AppImage exposes the application image (facade and tools).
func (s *Session) AppImage() *codegen.Image { return s.src.appImg }

// AppImageFor returns the app image measurements of a layout (a name or
// raw spec, as for Layout) run over: once the layout is built, the
// specialized (clone-grown) image if its pipeline fuses, the shared image
// otherwise. "fusion" and core.TxFuseSpec name one layout and one image.
func (s *Session) AppImageFor(name string) *codegen.Image {
	id, _, err := resolveLayout(name)
	if err != nil {
		return s.src.appImg
	}
	return s.src.appImageFor(s.defTrain, id)
}

// KernelImage exposes the kernel image.
func (s *Session) KernelImage() *codegen.Image { return s.src.kernImg }

// TrainFrom replaces the session's default training configuration: later
// Layout/Measure calls build from the profile trained under tc (zero fields
// inherit as in Options.Train). Memos are keyed by train spec, so switching
// back and forth never mixes results — but TrainFrom itself must not race
// other session calls. It returns s for chaining.
func (s *Session) TrainFrom(tc TrainConfig) *Session {
	s.defTrain = s.Opt.resolveTrain(tc)
	return s
}

// TrainSpec returns the resolved spec string of the session's current
// default training configuration.
func (s *Session) TrainSpec() string { return s.defTrain.Spec() }

// Train runs the default training configuration's profiling run once (Pixie
// instrumentation plus a DCPI-style sampler over the same run) and caches
// the profiles in the source. Concurrent callers block until the single
// training run finishes.
func (s *Session) Train() error {
	_, err := s.src.train(s.defTrain)
	return err
}

// Profile returns the Pixie training profile of the session's default train
// config (training first if needed).
func (s *Session) Profile() (*profile.Profile, error) {
	run, err := s.src.train(s.defTrain)
	if err != nil {
		return nil, err
	}
	return run.app, nil
}

// PipelineSpec returns the canonical pass list of a named layout (for
// reports). "base" has no pipeline and resolves to the empty spec.
func (s *Session) PipelineSpec(name string) (string, error) {
	_, pl, err := resolveLayout(name)
	if err != nil || pl == nil {
		return "", err
	}
	return pl.String(), nil
}

// Layout returns (building if needed) an app layout trained under the
// session's default train config. The name is "base" (the original
// binary's layout), "dcpi-all" (the "all" pipeline over the DCPI sampling
// profile), a core.Combos name, or a raw pipeline spec; a name and the spec
// it resolves to are one layout, built and measured once. A pipeline that
// fuses (txfuse) runs over a specialized copy of the app image, which
// AppImageFor returns, so shared procedures can be cloned into each
// transaction kind's fused unit. Raw specs flow through Measure and
// MeasureBatch too, which is how the search engine evaluates genome
// populations as one memoized parallel wave.
func (s *Session) Layout(name string) (*program.Layout, error) {
	return s.src.layout(s.defTrain, name)
}

// LayoutFrom is Layout with an explicit training configuration (zero fields
// inherit as in Options.Train): the layout is built from the profile
// trained under tc and memoized under tc's spec in the shared source.
func (s *Session) LayoutFrom(tc TrainConfig, name string) (*program.Layout, error) {
	return s.src.layout(s.Opt.resolveTrain(tc), name)
}

// Report returns the optimizer report for a layout built under the
// session's current default train config.
func (s *Session) Report(name string) *core.Report {
	return s.src.report(s.defTrain, name)
}

// ReportFrom returns the optimizer report for a layout built under tc
// (zero fields inherit as in Options.Train); nil if it has not been built.
func (s *Session) ReportFrom(tc TrainConfig, name string) *core.Report {
	return s.src.report(s.Opt.resolveTrain(tc), name)
}

// KernLayout returns a kernel layout: "kbase" or "kopt" (kernel code laid
// out with the full optimization pipeline over the default train config's
// kernel profile).
func (s *Session) KernLayout(name string) (*program.Layout, error) {
	return s.src.kernLayout(s.defTrain, name)
}

// recordLayout normalizes the session's record-layout setting: the empty
// string is the interleaved default, so both spellings share one memo key.
func (s *Session) recordLayout() string {
	if s.Opt.RecordLayout == "" {
		return "interleaved"
	}
	return s.Opt.RecordLayout
}

// fastPath normalizes the session's fast-path setting: single-shard
// measurements have no router to skip, so the flag is effective only on
// sharded configurations (this also keeps shards=1 memo keys and machine
// configs bit-identical with the flag set).
func (s *Session) fastPath() bool {
	return s.Opt.PredictFastPath && shardKey(s.Opt.Shards) > 1
}

func (s *Session) machineConfig(appImg *codegen.Image, appL, kernL *program.Layout, cpus int) machine.Config {
	return machine.Config{
		CPUs:                   cpus,
		ProcsPerCPU:            s.Opt.ProcsPerCPU,
		Seed:                   s.Opt.Seed,
		Shards:                 s.Opt.Shards,
		GroupCommitWindowInstr: s.Opt.GroupCommitWindowInstr,
		PerCommitLogFlush:      s.Opt.PerCommitLogFlush,
		AutoGroupCommit:        s.Opt.AutoGroupCommit,
		PredictFastPath:        s.fastPath(),
		FetchStallPenaltyInstr: s.Opt.FetchStallPenaltyInstr,
		WarmupTxns:             s.Opt.WarmupTxns,
		Transactions:           s.Opt.Transactions,
		Workload:               s.Opt.Workload,
		AppImage:               appImg,
		AppLayout:              appL,
		KernImage:              s.src.kernImg,
		KernLayout:             kernL,
	}
}

// Measure runs (or returns the memoized run of) the workload under the
// named layout (default train config) with the full measurement battery
// attached: it is MeasureNeed with NeedAll, the need of the paper's figures.
func (s *Session) Measure(layout string, cpus int) (*Measure, error) {
	return s.measureFor(s.defTrain, layout, "kbase", cpus, NeedAll)
}

// MeasureNeed is Measure with only the sink groups of need attached: the
// returned Measure fills Res, Latency, GCWindows and the fields of need (see
// Measure.Has), and costs only those simulators. Callers that read few
// fields — the search objectives, the latency and sweep tables — declare
// them here. The memo keeps one entry per key: a memoized run whose Has
// covers need is a hit, and any other call re-runs the measurement at the
// union of both needs (a miss) and replaces the entry, so a later NeedAll
// Measure of a key first measured with a small need costs one more run.
func (s *Session) MeasureNeed(layout string, cpus int, need Need) (*Measure, error) {
	return s.measureFor(s.defTrain, layout, "kbase", cpus, need)
}

// MeasureFrom is Measure with an explicit training configuration: it
// evaluates the layout trained under tc against the session's own
// measurement configuration — the train/eval mismatch experiments.
func (s *Session) MeasureFrom(tc TrainConfig, layout string, cpus int) (*Measure, error) {
	return s.measureFor(s.Opt.resolveTrain(tc), layout, "kbase", cpus, NeedAll)
}

// MeasureKern is Measure with an explicit kernel layout. Concurrent calls
// for the same (train, layout, kernel, cpus) key share one simulation run:
// the first caller runs it, later callers block until the result (or error)
// is memoized.
func (s *Session) MeasureKern(layout, kern string, cpus int) (*Measure, error) {
	return s.measureFor(s.defTrain, layout, kern, cpus, NeedAll)
}

// MeasureKernFrom is MeasureKern with an explicit training configuration.
func (s *Session) MeasureKernFrom(tc TrainConfig, layout, kern string, cpus int) (*Measure, error) {
	return s.measureFor(s.Opt.resolveTrain(tc), layout, kern, cpus, NeedAll)
}

// measureFor is the memoized measurement every Measure variant goes through.
// A memo entry serves every need its Has covers; an uncovered need re-runs
// the key at the union of the entry's groups and the need and replaces the
// entry. Waiters on an in-flight run re-check coverage once it lands.
func (s *Session) measureFor(tc TrainConfig, layout, kern string, cpus int, need Need) (*Measure, error) {
	id, pl, err := resolveLayout(layout)
	if err != nil {
		return nil, err
	}
	key := measKey{
		train:     tc.Spec(),
		workload:  s.Opt.Workload.Name(),
		layout:    id,
		kern:      kern,
		reclayout: s.recordLayout(),
		cpus:      cpus,
		shards:    shardKey(s.Opt.Shards),
		gcWindow:  s.Opt.GroupCommitWindowInstr,
		perCommit: s.Opt.PerCommitLogFlush,
		gcMode:    s.Opt.AutoGroupCommit,
		fastPath:  s.fastPath(),
		stall:     s.Opt.FetchStallPenaltyInstr,
	}
	for {
		s.mu.Lock()
		m, ok := s.measures[key]
		if ok && m.Has.covers(need) {
			s.measHits++
			s.mu.Unlock()
			return m, nil
		}
		if err, ok := s.measErr[key]; ok {
			s.mu.Unlock()
			return nil, err
		}
		if ch, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			<-ch // someone else is running this measurement
			continue
		}
		run := need
		if ok {
			run |= m.Has // an upgrade keeps what the entry already served
		}
		ch := make(chan struct{})
		s.inflight[key] = ch
		s.measMisses++
		s.mu.Unlock()

		meas, err := s.measureNamed(tc, id, pl, kern, cpus, run)
		s.mu.Lock()
		if err != nil {
			s.measErr[key] = err
		} else {
			s.measures[key] = meas
		}
		delete(s.inflight, key)
		close(ch)
		s.mu.Unlock()
		return meas, err
	}
}

// measureNamed builds (or fetches) the named layouts and runs them.
func (s *Session) measureNamed(tc TrainConfig, id layoutID, pl core.Pipeline, kern string, cpus int, need Need) (*Measure, error) {
	appL, err := s.src.build(tc, id, pl)
	if err != nil {
		return nil, err
	}
	kernL, err := s.src.kernLayout(tc, kern)
	if err != nil {
		return nil, err
	}
	what := fmt.Sprintf("%s/%s/%dcpu (train %s)", id.spec, kern, cpus, tc.Spec())
	// A fused layout addresses cloned blocks that exist only in its
	// specialized image; every other layout runs over the shared image.
	return s.run(tc, s.src.appImageFor(tc, id), appL, kernL, cpus, need, what)
}

// run is the one measurement run: the session's machine over the given
// images and layouts, with the sinks of need attached and the physical
// record layout the session asks for (grouped layouts regroup by tc's field
// profile). It checks the engine invariants after the run. what names the
// run in errors.
func (s *Session) run(tc TrainConfig, appImg *codegen.Image, appL, kernL *program.Layout, cpus int, need Need, what string) (*Measure, error) {
	bat := newBattery(cpus, need)
	cfg := s.machineConfig(appImg, appL, kernL, cpus)
	cfg.Sinks = bat.sinks()
	cfg.DataSinks = bat.dataSinks()
	if s.recordLayout() == "grouped" {
		prof, err := s.src.fieldProfile(tc)
		if err != nil {
			return nil, err
		}
		cfg.RecordLayouts, err = reclayout.GroupedDefs(s.Opt.Workload, prof)
		if err != nil {
			return nil, err
		}
	}
	mach, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := mach.Run()
	if err != nil {
		return nil, fmt.Errorf("expt: measuring %s: %w", what, err)
	}
	if err := mach.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("expt: measuring %s: %w", what, err)
	}
	meas := bat.finish(res)
	meas.Latency = mach.LatencyByKind()
	meas.GCWindows = mach.GroupCommitWindows()
	return meas, nil
}

// MeasureBatch measures every named layout concurrently with a bounded
// worker pool (workers <= 0 picks min(GOMAXPROCS, len(layouts))), each with
// the sink groups of need (NeedAll for the full battery; see MeasureNeed).
// Each result lands in the memo, so subsequent MeasureNeed calls with a
// need it covers are hits. The first error is returned after all workers
// drain.
func (s *Session) MeasureBatch(layouts []string, cpus, workers int, need Need) error {
	if len(layouts) == 0 {
		return nil
	}
	// The training run is a shared dependency of every layout build; do it
	// before fanning out so workers start from the same memoized profiles
	// instead of queueing behind the in-flight dedup.
	if err := s.Train(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(layouts) {
		workers = len(layouts)
	}
	jobs := make(chan string)
	errs := make(chan error, len(layouts))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range jobs {
				_, err := s.MeasureNeed(name, cpus, need)
				errs <- err
			}
		}()
	}
	for _, name := range layouts {
		jobs <- name
	}
	close(jobs)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

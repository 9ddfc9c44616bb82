package expt

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/pstore"
	"codelayout/internal/reclayout"
	"codelayout/internal/trace"
	"codelayout/internal/workload"
)

// TrainConfig identifies one training run: which workload was profiled and
// the machine shape it ran under. It is the train-side half of a session's
// configuration — the evaluation half lives in the remaining Options fields —
// so a layout can be trained under one configuration and evaluated under
// another (the profile-drift experiments). Zero fields inherit from the
// evaluating session's options, so the zero TrainConfig means "self-trained":
// same workload, same shard count, same processor count as the evaluation.
type TrainConfig struct {
	// Workload is the transaction mix the profiling run executes; nil uses
	// the session's evaluation workload. A non-nil workload must be covered
	// by the profile source's image (see NewProfileSource).
	Workload workload.Workload
	// Seed drives the profiling run's clients; 0 inherits the session's
	// evaluation seed (DefaultOptions sets a distinct train seed, as the
	// paper trains and evaluates on different runs).
	Seed int64
	// Shards is the partitioned-engine count of the profiling run; 0
	// inherits the session's evaluation shard count.
	Shards int
	// Txns is the profiled committed-transaction count; 0 inherits the
	// session's measured transaction count.
	Txns int
	// CPUs is the profiling run's processor count; 0 inherits.
	CPUs int
	// WarmupTxns commit before profiling begins; 0 inherits.
	WarmupTxns int
}

// shardKey normalizes a shard count for specs and memo keys (0 and 1 are the
// same single-engine machine).
func shardKey(shards int) int {
	if shards <= 1 {
		return 1
	}
	return shards
}

// Spec renders a fully resolved train config as the canonical memo-key
// string. Two train configs with equal specs share one training run; any
// difference — workload, shard count, seed, length — keys a separate run, so
// mismatched train/eval pairs can never collide in a memo.
func (tc TrainConfig) Spec() string {
	name := "?"
	if tc.Workload != nil {
		name = tc.Workload.Name()
	}
	return fmt.Sprintf("%s/s%d/c%d/seed%d/w%d/x%d",
		name, shardKey(tc.Shards), tc.CPUs, tc.Seed, tc.WarmupTxns, tc.Txns)
}

// trainRun is one memoized training run: the exact Pixie profiles of the app
// and kernel plus the DCPI-style sampling profile over the same run, and the
// observed transaction-kind mix (the drift monitor's reference).
type trainRun struct {
	app      *profile.Profile
	kern     *profile.Profile
	dcpi     *profile.Profile
	kindFreq map[string]float64
	// fields is the field-access profile the engines tallied while training
	// (table → field → read/write counts) — what the record-layout pass
	// groups hot fields from. Training always runs the interleaved baseline
	// layout, so the profile is layout-independent.
	fields reclayout.Profile
}

// ProfileSource owns the built images, their baseline layouts, and memos of
// training runs and optimized layouts keyed by resolved TrainConfig spec.
// It is the portable-profile seam: sessions borrow the source's images, so
// every profile the source trains — under any workload or shard count the
// image covers — is over one shared program, and every layout it builds is
// shared by all sessions of the source (a layout depends only on the
// program, the training profile and the pipeline, never on the evaluation
// config). All methods are safe for concurrent use.
type ProfileSource struct {
	opt       Options
	workloads map[string]workload.Workload // name → workload covered by the image

	appImg   *codegen.Image
	kernImg  *codegen.Image
	baseApp  *program.Layout
	baseKern *program.Layout

	// store, when non-nil, persists training runs across processes
	// (Options.ProfileStore); imageID fingerprints both program images so a
	// stored profile can never be applied to a different build.
	store   *pstore.Store
	imageID string

	mu        sync.Mutex
	trainExec uint64 // training runs actually executed (not served by a memo or the store)
	lastHit   *pstore.Entry
	runs      map[string]*trainRun
	trainErr  map[string]error
	inflight  map[string]chan struct{}
	layouts   map[layoutKey]*program.Layout
	reports   map[layoutKey]*core.Report
	kernLay   map[layoutKey]*program.Layout
	// images holds per-layout specialized app images: fusing layouts clone
	// procedures, so they address blocks the shared image does not have,
	// and measurements must run over the grown image.
	images map[layoutKey]*codegen.Image

	// memo hit/miss counters (MemoStats): how often the train and layout
	// memos answered from cache vs executed work.
	trainHits, trainMisses   uint64
	layoutHits, layoutMisses uint64
}

// NewProfileSource builds the images and baseline layouts for o's workload
// plus any extra workloads whose transaction models should join the app
// image. With extras the image is a union binary: a profile trained while
// running any covered workload maps onto the same program, which is what
// makes train/eval workload mismatch experiments possible. With no extras
// the image is bit-identical to the one NewSession has always built.
func NewProfileSource(o Options, extra ...workload.Workload) (*ProfileSource, error) {
	if o.Workload == nil {
		o.Workload = defaultWorkload()
	}
	ps := &ProfileSource{
		opt:       o,
		workloads: map[string]workload.Workload{o.Workload.Name(): o.Workload},
		runs:      make(map[string]*trainRun),
		trainErr:  make(map[string]error),
		inflight:  make(map[string]chan struct{}),
		layouts:   make(map[layoutKey]*program.Layout),
		reports:   make(map[layoutKey]*core.Report),
		kernLay:   make(map[layoutKey]*program.Layout),
		images:    make(map[layoutKey]*codegen.Image),
	}
	var extras []workload.Workload
	for _, w := range extra {
		if _, dup := ps.workloads[w.Name()]; dup {
			continue
		}
		ps.workloads[w.Name()] = w
		extras = append(extras, w)
	}
	var err error
	ps.appImg, err = appmodel.Build(appmodel.Config{
		Seed: o.Seed, LibScale: o.LibScale, ColdWords: o.ColdWords,
		Workload: o.Workload, ExtraWorkloads: extras,
		FastPath: o.PredictFastPath,
	})
	if err != nil {
		return nil, fmt.Errorf("expt: app image: %w", err)
	}
	ps.kernImg, err = kernel.Build(kernel.Config{Seed: o.Seed + 1, ColdWords: o.KernColdWords})
	if err != nil {
		return nil, fmt.Errorf("expt: kernel image: %w", err)
	}
	ps.baseApp, err = program.BaselineLayout(ps.appImg.Prog)
	if err != nil {
		return nil, err
	}
	ps.baseKern, err = program.BaselineLayout(ps.kernImg.Prog)
	if err != nil {
		return nil, err
	}
	ps.layouts[layoutKey{layoutID: layoutID{spec: "base"}}] = ps.baseApp
	ps.kernLay[layoutKey{layoutID: layoutID{spec: "kbase"}}] = ps.baseKern
	ps.store = o.ProfileStore
	ps.imageID = fmt.Sprintf("%016x-%016x", ps.appImg.Prog.Fingerprint(), ps.kernImg.Prog.Fingerprint())
	return ps, nil
}

// storeKey is a training run's identity in the persistent store: the resolved
// train spec, every option that shapes the profiling run beyond the spec, and
// the content fingerprints of both program images (a profile indexes the
// blocks of one specific build).
func (ps *ProfileSource) storeKey(spec string) pstore.Key {
	return pstore.Key{
		Spec: fmt.Sprintf("%s|p%d/gc%d/pc%t/fp%t/dcpi%d",
			spec, ps.opt.ProcsPerCPU, ps.opt.GroupCommitWindowInstr,
			ps.opt.PerCommitLogFlush, ps.opt.PredictFastPath, ps.opt.DCPIPeriod),
		Image: ps.imageID,
	}
}

// memoStats reports the source-side memo counters (train + layout halves of
// a session's MemoStats).
func (ps *ProfileSource) memoStats() (train, layout MemoCounters) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	train = MemoCounters{Hits: ps.trainHits, Misses: ps.trainMisses, Entries: uint64(len(ps.runs))}
	layout = MemoCounters{Hits: ps.layoutHits, Misses: ps.layoutMisses, Entries: uint64(len(ps.layouts))}
	return train, layout
}

// TrainRunsExecuted reports how many training simulations this source has
// actually run — memo and store hits do not count, which is what the pinned
// warm-store regression asserts on.
func (ps *ProfileSource) TrainRunsExecuted() uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.trainExec
}

// StoreStats reports the persistent store's hit/miss counters (zero Stats
// and false when the source has no store).
func (ps *ProfileSource) StoreStats() (pstore.Stats, bool) {
	if ps.store == nil {
		return pstore.Stats{}, false
	}
	return ps.store.Stats(), true
}

// LastStoreHit returns the most recent entry served from the persistent
// store (nil if every training so far was executed) — commands report its
// age next to the hit counters.
func (ps *ProfileSource) LastStoreHit() *pstore.Entry {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.lastHit
}

// trainEntry trains (or loads) tc and packages the run as a store entry —
// the currency of the persistent store and of profile blending.
func (ps *ProfileSource) trainEntry(tc TrainConfig) (*pstore.Entry, error) {
	tc = ps.opt.resolveTrain(tc)
	run, err := ps.train(tc)
	if err != nil {
		return nil, err
	}
	k := ps.storeKey(tc.Spec())
	return &pstore.Entry{
		Spec:     k.Spec,
		Image:    k.Image,
		KindFreq: run.kindFreq,
		Fields:   run.fields,
		App:      run.app,
		Kern:     run.kern,
		DCPI:     run.dcpi,
	}, nil
}

// fieldProfile trains (or loads) tc and returns its field-access profile —
// nil (static-hint fallback) when the run predates field tallying (an old
// store entry).
func (ps *ProfileSource) fieldProfile(tc TrainConfig) (reclayout.Profile, error) {
	run, err := ps.train(ps.opt.resolveTrain(tc))
	if err != nil {
		return nil, err
	}
	return run.fields, nil
}

// AppImage exposes the shared application image.
func (ps *ProfileSource) AppImage() *codegen.Image { return ps.appImg }

// KernelImage exposes the shared kernel image.
func (ps *ProfileSource) KernelImage() *codegen.Image { return ps.kernImg }

// Covers reports whether the named workload's transaction models are part of
// the source's app image (and it can therefore be trained on or evaluated).
func (ps *ProfileSource) Covers(name string) bool {
	_, ok := ps.workloads[name]
	return ok
}

// WorkloadNames lists the workloads the image covers, sorted.
func (ps *ProfileSource) WorkloadNames() []string {
	names := make([]string, 0, len(ps.workloads))
	for n := range ps.workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Train runs (or returns the memoized) training run for a fully resolved
// config. Concurrent callers for one spec share a single run.
func (ps *ProfileSource) train(tc TrainConfig) (*trainRun, error) {
	if tc.Workload == nil {
		return nil, fmt.Errorf("expt: train config has no workload")
	}
	if !ps.Covers(tc.Workload.Name()) {
		return nil, fmt.Errorf("expt: train workload %q is not modeled in this image (covers %v); list it in NewProfileSource",
			tc.Workload.Name(), ps.WorkloadNames())
	}
	spec := tc.Spec()
	for {
		ps.mu.Lock()
		if run, ok := ps.runs[spec]; ok {
			ps.trainHits++
			ps.mu.Unlock()
			return run, nil
		}
		if err, ok := ps.trainErr[spec]; ok {
			ps.mu.Unlock()
			return nil, err
		}
		if ch, ok := ps.inflight[spec]; ok {
			ps.mu.Unlock()
			<-ch // someone else is running this training
			continue
		}
		ch := make(chan struct{})
		ps.inflight[spec] = ch
		ps.trainMisses++
		ps.mu.Unlock()

		run, err := ps.trainOrLoad(tc, spec)
		ps.mu.Lock()
		if err != nil {
			ps.trainErr[spec] = err
		} else {
			ps.runs[spec] = run
		}
		delete(ps.inflight, spec)
		close(ch)
		ps.mu.Unlock()
		return run, err
	}
}

// profileKind selects which of a training run's app profiles a layout
// pipeline runs over.
type profileKind uint8

const (
	pixieProfile profileKind = iota // exact instrumentation counts
	dcpiProfile                     // DCPI-style samples (the "dcpi-all" ablation)
)

// layoutID is a layout's identity apart from its training run: the
// canonical pipeline spec ("base" for the baseline layout, the name for a
// kernel layout) and the profile kind it trains on. A combo name and its
// raw spec resolve to one layoutID, so they share every memo entry.
type layoutID struct {
	spec string
	prof profileKind
}

// resolveLayout maps a layout name — "base", "dcpi-all", a core.Combos
// name — or a raw pipeline spec to its identity and pipeline (nil for
// base, which is the original binary's layout rather than a pipeline).
func resolveLayout(name string) (layoutID, core.Pipeline, error) {
	if name == "base" {
		return layoutID{spec: "base"}, nil, nil
	}
	prof := pixieProfile
	if name == "dcpi-all" {
		name, prof = "all", dcpiProfile
	}
	pl, err := core.Resolve(name)
	if err != nil {
		return layoutID{}, nil, fmt.Errorf("expt: unknown layout: %w", err)
	}
	return layoutID{spec: pl.String(), prof: prof}, pl, nil
}

// key is the memo key of a layout built under tc; the baseline depends on
// no profile, so it carries an empty train spec.
func (id layoutID) key(tc TrainConfig) layoutKey {
	if id.spec == "base" {
		return layoutKey{layoutID: id}
	}
	return layoutKey{train: tc.Spec(), layoutID: id}
}

// layout builds (or returns the memoized) app layout of a name or raw spec
// (see resolveLayout) trained under a fully resolved config.
func (ps *ProfileSource) layout(tc TrainConfig, name string) (*program.Layout, error) {
	id, pl, err := resolveLayout(name)
	if err != nil {
		return nil, err
	}
	return ps.build(tc, id, pl)
}

// build builds (or returns the memoized) layout id with its pipeline pl.
// Layouts depend only on source state, so every session of the source
// shares them.
func (ps *ProfileSource) build(tc TrainConfig, id layoutID, pl core.Pipeline) (*program.Layout, error) {
	key := id.key(tc)
	ps.mu.Lock()
	l, ok := ps.layouts[key]
	if ok {
		ps.layoutHits++
		ps.mu.Unlock()
		return l, nil
	}
	ps.layoutMisses++
	ps.mu.Unlock()
	run, err := ps.train(tc)
	if err != nil {
		return nil, err
	}
	prof := run.app
	if id.prof == dcpiProfile {
		prof = run.dcpi
	}
	// Fusing pipelines resolve kind roots over every covered workload, in
	// sorted order so the fused layout is deterministic.
	wls := make([]workload.Workload, 0, len(ps.workloads))
	for _, name := range ps.WorkloadNames() {
		wls = append(wls, ps.workloads[name])
	}
	l, rep, img, err := appmodel.BuildLayout(ps.appImg, pl, prof, wls...)
	if err != nil {
		return nil, fmt.Errorf("expt: layout %q (train %s): %w", id.spec, key.train, err)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if prev, ok := ps.layouts[key]; ok {
		return prev, nil // another goroutine built it concurrently
	}
	ps.layouts[key] = l
	ps.reports[key] = rep
	if img != ps.appImg {
		ps.images[key] = img
	}
	return l, nil
}

// appImageFor returns the app image a layout's measurements must run over:
// the specialized (grown) image when the layout built one, the shared image
// otherwise. Valid once the layout has been built.
func (ps *ProfileSource) appImageFor(tc TrainConfig, id layoutID) *codegen.Image {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if img, ok := ps.images[id.key(tc)]; ok {
		return img
	}
	return ps.appImg
}

// report returns the optimizer report of a layout built under tc (nil if
// the layout has not been built).
func (ps *ProfileSource) report(tc TrainConfig, name string) *core.Report {
	id, _, err := resolveLayout(name)
	if err != nil {
		return nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.reports[id.key(tc)]
}

// kernLayout builds (or returns the memoized) kernel layout: "kbase" or
// "kopt" (the full pipeline over the training run's kernel profile).
func (ps *ProfileSource) kernLayout(tc TrainConfig, name string) (*program.Layout, error) {
	key := layoutKey{train: tc.Spec(), layoutID: layoutID{spec: name}}
	if name == "kbase" {
		key.train = ""
	}
	ps.mu.Lock()
	l, ok := ps.kernLay[key]
	ps.mu.Unlock()
	if ok {
		return l, nil
	}
	if name != "kopt" {
		return nil, fmt.Errorf("expt: unknown kernel layout %q", name)
	}
	run, err := ps.train(tc)
	if err != nil {
		return nil, err
	}
	pl, err := core.Resolve("all")
	if err != nil {
		return nil, err
	}
	l, _, _, err = appmodel.BuildLayout(ps.kernImg, pl, run.kern)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if prev, ok := ps.kernLay[key]; ok {
		return prev, nil
	}
	ps.kernLay[key] = l
	return l, nil
}

// trainOrLoad serves a training run from the persistent store when one is
// configured and holds the key, and executes (then persists) it otherwise.
// Stored profiles are exact, so either path yields the same trainRun.
func (ps *ProfileSource) trainOrLoad(tc TrainConfig, spec string) (*trainRun, error) {
	if ps.store == nil {
		return ps.runTraining(tc, spec)
	}
	key := ps.storeKey(spec)
	if e, ok := ps.store.Get(key); ok {
		ps.mu.Lock()
		ps.lastHit = e
		ps.mu.Unlock()
		return &trainRun{app: e.App, kern: e.Kern, dcpi: e.DCPI, kindFreq: e.KindFreq,
			fields: reclayout.Profile(e.Fields)}, nil
	}
	run, err := ps.runTraining(tc, spec)
	if err != nil {
		return nil, err
	}
	// Persistence is best-effort: a full disk must not fail the experiment,
	// and the in-memory memo still carries the run.
	_ = ps.store.Put(&pstore.Entry{
		Spec: key.Spec, Image: key.Image, CreatedAt: time.Now(),
		KindFreq: run.kindFreq, Fields: run.fields, App: run.app, Kern: run.kern, DCPI: run.dcpi,
	})
	return run, nil
}

// runTraining executes one profiling run: Pixie instrumentation on app and
// kernel plus a DCPI-style sampler over the same run.
func (ps *ProfileSource) runTraining(tc TrainConfig, spec string) (*trainRun, error) {
	px := profile.NewPixie(ps.appImg.Prog, "pixie-train")
	kx := profile.NewPixie(ps.kernImg.Prog, "kprofile")
	dcpi := profile.NewDCPI(ps.baseApp, ps.opt.DCPIPeriod)
	cfg := machine.Config{
		CPUs:                   tc.CPUs,
		ProcsPerCPU:            ps.opt.ProcsPerCPU,
		Seed:                   tc.Seed,
		Shards:                 tc.Shards,
		GroupCommitWindowInstr: ps.opt.GroupCommitWindowInstr,
		PerCommitLogFlush:      ps.opt.PerCommitLogFlush,
		PredictFastPath:        ps.opt.PredictFastPath && shardKey(tc.Shards) > 1,
		WarmupTxns:             tc.WarmupTxns,
		Transactions:           tc.Txns,
		Workload:               tc.Workload,
		AppImage:               ps.appImg,
		AppLayout:              ps.baseApp,
		KernImage:              ps.kernImg,
		KernLayout:             ps.baseKern,
		AppCollector:           px,
		KernCollector:          kx,
		Sinks:                  []trace.Sink{trace.AppOnly(dcpi)},
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("expt: training %s: %w", spec, err)
	}
	if _, err := m.Run(); err != nil {
		return nil, fmt.Errorf("expt: training %s: %w", spec, err)
	}
	ps.mu.Lock()
	ps.trainExec++
	ps.mu.Unlock()
	return &trainRun{app: px.Profile, kern: kx.Profile, dcpi: dcpi.Finish("dcpi-train"),
		kindFreq: m.KindFrequencies(), fields: m.FieldProfile()}, nil
}

// Package codelayout reproduces "Code Layout Optimizations for Transaction
// Processing Workloads" (Ramírez et al., ISCA 2001) as a Go library: a
// Spike-style profile-driven layout optimizer (basic block chaining,
// fine-grain procedure splitting, Pettis–Hansen procedure ordering), the
// OLTP system it is evaluated on (a TPC-B storage engine, modeled
// application and kernel code images, a multiprocessor full-system
// simulator), and the measurement stack (instruction caches with the
// paper's word-usage/lifetime/interference metrics, iTLB, unified L2,
// timing model) that regenerates every figure of the paper's evaluation.
//
// The package is a facade over the internal packages, re-exporting the part
// the example programs use: the layout optimizer and its pass registry, the
// workload registry, and experiment sessions.
//
//	s, _ := codelayout.NewSession(codelayout.QuickSessionOptions())
//	tables, _ := codelayout.RunExperiment(s, "fig07")
//	opt, rep, _ := codelayout.Optimize(prog, prof, "all")
//
// See examples/ for complete programs and cmd/layoutlab for the experiment
// harness.
package codelayout

import (
	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/expt"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/stats"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"

	// Register the built-in workloads with the name registry.
	_ "codelayout/internal/ordere"
	_ "codelayout/internal/tpcb"
)

// Core program representation.
type (
	// Program is an executable image: procedures of basic blocks.
	Program = program.Program
	// Layout places a program's blocks at addresses.
	Layout = program.Layout
	// Profile carries basic-block and edge execution counts.
	Profile = profile.Profile
	// Image is a modeled binary with emitter annotations.
	Image = codegen.Image
	// Table is a rendered experiment result.
	Table = stats.Table
)

// Optimizer surface.
type (
	// OptimizeReport summarizes what the optimizer did.
	OptimizeReport = core.Report
	// Pass is one stage of a layout pipeline.
	Pass = core.Pass
	// PassFactory builds a pass from its spec argument.
	PassFactory = core.PassFactory
	// Pipeline is an ordered list of layout passes.
	Pipeline = core.Pipeline
	// LayoutState is the shared state a pipeline threads through its passes.
	LayoutState = core.LayoutState
)

// Optimize lays out the program using the profile, exactly as Spike does,
// with a combo name ("all" is the paper's chain + fine-grain split +
// Pettis–Hansen combination; cmd/spike -list-passes lists the rest) or a raw
// pipeline spec such as "chain,split:fine,porder:ph".
func Optimize(p *Program, prof *Profile, layout string) (*Layout, *OptimizeReport, error) {
	pl, err := core.Resolve(layout)
	if err != nil {
		return nil, nil, err
	}
	return pl.Run(p, prof)
}

// RegisterPass adds a custom layout pass to the pipeline registry under the
// given base name; pipeline specs may then reference it as "name" or
// "name:arg".
func RegisterPass(name string, f PassFactory) error { return core.RegisterPass(name, f) }

// ParsePipeline parses a comma-separated pass spec such as
// "chain,split:fine,porder:ph" into a runnable pipeline (materialization
// runs implicitly if the spec does not end in a materializing pass).
func ParsePipeline(spec string) (Pipeline, error) { return core.ParsePipeline(spec) }

// BaselineLayout materializes the original (source-order) binary layout.
func BaselineLayout(p *Program) (*Layout, error) { return program.BaselineLayout(p) }

// NewPixie creates an exact (instrumentation) profile collector for the
// program; attach it as a machine's AppCollector.
func NewPixie(p *Program, name string) *profile.Pixie { return profile.NewPixie(p, name) }

// Workload describes one OLTP benchmark at a specific scale.
type Workload = workload.Workload

// Workloads lists the registered workload names ("tpcb", "ordere", "ycsb",
// ...).
func Workloads() []string { return workload.Names() }

// NewWorkload returns the named workload at its default (paper) scale.
func NewWorkload(name string) (Workload, error) { return workload.New(name) }

// RegisterWorkload adds a user-defined mix to the name registry, making it
// reachable by every -workload flag, session option and experiment table
// without importing internal packages. It errors on duplicate names. See
// examples/customworkload for a complete program.
func RegisterWorkload(name string, f func() Workload) error {
	return workload.RegisterUser(name, f)
}

// YCSB returns the key-value point-read workload at default scale (95/5
// read/update).
func YCSB() Workload { return ycsb.New() }

// YCSBMix returns a key-value workload variant with its own registry label
// and read percentage — the building block for user-defined mixes (register
// it with RegisterWorkload to make it addressable by name).
func YCSBMix(label string, readPct int) Workload {
	w := ycsb.New()
	w.Label = label
	w.ReadPct = readPct
	return w
}

// Experiment harness surface.
type (
	// Session owns images, profiles and memoized measurement runs.
	Session = expt.Session
	// SessionOptions configures a session.
	SessionOptions = expt.Options
	// TrainConfig is the train-side half of a session's configuration:
	// the workload, seed, shard count and length of the profiling run a
	// layout is built from. Zero fields inherit from the evaluation side.
	TrainConfig = expt.TrainConfig
	// ProfileSource owns shared images and memoized training runs, so
	// several sessions (or several train configs in one session) evaluate
	// layouts over one program.
	ProfileSource = expt.ProfileSource
)

// DefaultSessionOptions is the paper-scale configuration.
func DefaultSessionOptions() SessionOptions { return expt.DefaultOptions() }

// QuickSessionOptions is a fast, shape-preserving configuration.
func QuickSessionOptions() SessionOptions { return expt.QuickOptions() }

// NewSession builds the images and baseline layouts for experiments.
func NewSession(o SessionOptions) (*Session, error) { return expt.NewSession(o) }

// NewProfileSource builds shared images covering o's workload plus any
// extras, so sessions created with NewSessionFrom can transplant layouts
// trained on any covered workload.
func NewProfileSource(o SessionOptions, extra ...Workload) (*ProfileSource, error) {
	return expt.NewProfileSource(o, extra...)
}

// NewSessionFrom builds a session over a shared profile source.
func NewSessionFrom(src *ProfileSource, o SessionOptions) (*Session, error) {
	return expt.NewSessionFrom(src, o)
}

// RunExperiment executes one experiment in the session.
func RunExperiment(s *Session, id string) ([]*Table, error) { return s.Run(id) }

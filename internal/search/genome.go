// Package search evolves layout-pass pipelines against the measured
// simulator, AI-PROPELLER style: genomes are parameterized pipeline specs
// validated against the core.Pass registry, fitness is a weighted
// multi-workload objective measured through expt.Session's memoized
// quick-scale runs, and the engine is a deterministic, seedable
// (mu + lambda)-ish evolutionary loop with elitism, tournament selection,
// stage-wise crossover and plateau early stop. The point of the exercise:
// report whether evolved pipelines beat the paper's hand-built combos and
// whether the winners transfer across workloads.
package search

import (
	"fmt"
	"strings"

	"codelayout/internal/core"
)

// Gene is one pass invocation in a pipeline genome: a registered base pass
// name plus its optional ":arg" parameter.
type Gene struct {
	Name string
	Arg  string
}

// Spec renders the gene as the "name" or "name:arg" form ParsePipeline
// accepts.
func (g Gene) Spec() string {
	if g.Arg == "" {
		return g.Name
	}
	return g.Name + ":" + g.Arg
}

// Genome is an ordered pass list — a parameterized pipeline spec. The zero
// value is invalid; build genomes with ParseGenome, RandomGenome, or the
// mutation/crossover operators, all of which emit legal pipelines.
type Genome []Gene

// Spec renders the genome as the canonical comma-separated pipeline spec —
// the genome's identity: two genomes with equal specs are the same point in
// the search space and share one measurement.
func (g Genome) Spec() string {
	parts := make([]string, len(g))
	for i, gene := range g {
		parts[i] = gene.Spec()
	}
	return strings.Join(parts, ",")
}

// Clone returns an independent copy of the genome.
func (g Genome) Clone() Genome {
	return append(Genome(nil), g...)
}

// ParseGenome parses a pipeline spec into a validated genome. Unknown pass
// names surface core's *UnknownPassError (listing the registry), bad
// arguments the pass factory's own error, and structural problems a
// legality error from Validate.
func ParseGenome(spec string) (Genome, error) {
	var g Genome
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, arg := field, ""
		if i := strings.IndexByte(field, ':'); i >= 0 {
			name, arg = field[:i], field[i+1:]
		}
		g = append(g, Gene{Name: strings.TrimSpace(name), Arg: strings.TrimSpace(arg)})
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// stageRank orders the structural stages a legal pipeline must respect:
// chaining before splitting, splitting before unit merging (ipchain/txfuse),
// merging before ordering, ordering before CFA planning, materialize last.
// align floats (it only sets a materialization parameter); a pass not in the
// map is unknown to the legality model and rejected.
var stageRank = map[string]int{
	"chain":       0,
	"split":       1,
	"ipchain":     2,
	"txfuse":      2,
	"porder":      3,
	"cfa":         4,
	"materialize": 9,
}

// Validate checks the genome is a legal pipeline: every gene resolves
// against the core.Pass registry (names and arguments), materialize is the
// single terminal pass, no pass repeats, at most one unit-merging (fusion)
// pass runs, and the structural stages appear in an order the passes
// themselves would accept at run time.
func (g Genome) Validate() error {
	if len(g) == 0 {
		return fmt.Errorf("search: empty genome")
	}
	if last := g[len(g)-1]; last.Name != "materialize" {
		return fmt.Errorf("search: genome %q must end with materialize", g.Spec())
	}
	seen := make(map[string]bool, len(g))
	fusions := 0
	prevRank := -1
	for i, gene := range g {
		if _, err := core.NewPass(gene.Spec()); err != nil {
			return err
		}
		if seen[gene.Name] {
			return fmt.Errorf("search: genome %q repeats pass %q", g.Spec(), gene.Name)
		}
		seen[gene.Name] = true
		if gene.Name == "materialize" && i != len(g)-1 {
			return fmt.Errorf("search: genome %q has a non-terminal materialize", g.Spec())
		}
		if gene.Name == "ipchain" || gene.Name == "txfuse" {
			fusions++
		}
		if gene.Name == "align" {
			continue // align floats anywhere before materialize
		}
		rank, ok := stageRank[gene.Name]
		if !ok {
			return fmt.Errorf("search: pass %q has no legality rank; extend search.stageRank to make it evolvable", gene.Name)
		}
		if rank <= prevRank {
			return fmt.Errorf("search: genome %q runs %q out of stage order", g.Spec(), gene.Name)
		}
		prevRank = rank
	}
	if fusions > 1 {
		return fmt.Errorf("search: genome %q has %d unit-merging passes; at most one of ipchain/txfuse may run", g.Spec(), fusions)
	}
	return nil
}

// stages is the structural decomposition of a genome used by the mutation
// and crossover operators: one slot per stage, nil when the stage is absent.
// Reassembling slots in canonical order always yields a legal genome, which
// is what lets the operators compose freely without a repair step.
type stages struct {
	chain *Gene
	split *Gene
	fuse  *Gene // ipchain or txfuse — at most one
	order *Gene // porder
	cfa   *Gene
	align *Gene
}

func (g Genome) stages() stages {
	var st stages
	for i := range g {
		gene := &g[i]
		switch gene.Name {
		case "chain":
			st.chain = gene
		case "split":
			st.split = gene
		case "ipchain", "txfuse":
			st.fuse = gene
		case "porder":
			st.order = gene
		case "cfa":
			st.cfa = gene
		case "align":
			st.align = gene
		}
	}
	return st
}

// genome reassembles the stage slots into the canonical legal pass order.
func (st stages) genome() Genome {
	var g Genome
	for _, gene := range []*Gene{st.chain, st.split, st.fuse, st.order, st.cfa, st.align} {
		if gene != nil {
			g = append(g, Gene{Name: gene.Name, Arg: gene.Arg})
		}
	}
	return append(g, Gene{Name: "materialize"})
}

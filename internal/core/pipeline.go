package core

import (
	"fmt"
	"strings"
)

// OrderMode selects the procedure-ordering pass.
type OrderMode int

const (
	// OrderOriginal keeps units in the original binary's link order.
	OrderOriginal OrderMode = iota
	// OrderPettisHansen applies Pettis–Hansen ordering to the hot units and
	// appends cold units afterwards.
	OrderPettisHansen
)

// Combo names a standard layout: one of the paper's combinations or an
// extension measured next to them, as its canonical pipeline spec.
type Combo struct {
	Name string
	Spec string
}

// combos is the name → spec table, in report order: the paper's Figure 7 /
// Figure 15 combinations (base, porder, chain, chain+split, chain+porder,
// all), then "hotcold" (Spike-distribution splitting), "cfa" (the reserved
// conflict-free area), "ipchain" (inter-procedural call chaining) and
// "fusion" (per-transaction-kind program fusion).
var combos = []Combo{
	{"base", "split:none,porder:orig,materialize"},
	{"porder", "split:none,porder:ph,materialize"},
	{"chain", "chain,split:none,porder:orig,materialize"},
	{"chain+split", "chain,split:fine,porder:orig,materialize"},
	{"chain+porder", "chain,split:none,porder:ph,materialize"},
	{"all", "chain,split:fine,porder:ph,materialize"},
	{"hotcold", "chain,split:hotcold,porder:ph,materialize"},
	{"cfa", "chain,split:fine,porder:ph,cfa:65536/16384,materialize"},
	{"ipchain", IPChainSpec},
	{"fusion", TxFuseSpec},
}

// IPChainSpec is the pipeline spec of the "ipchain" combo: chain+porder with
// the inter-procedural call-chaining pass merging caller/callee units along
// hot call edges before Pettis–Hansen ordering.
const IPChainSpec = "chain,split:none,ipchain,porder:ph,materialize"

// TxFuseSpec is the pipeline spec of the "fusion" combo: chain+porder with
// the transaction-program fusion pass collapsing each kind's hot call chain
// into one straight-line placement unit before Pettis–Hansen ordering. Run
// it through Pipeline.RunFused to supply kind roots and a procedure cloner;
// plain Run derives roots from the profile and skips cloning.
const TxFuseSpec = "chain,split:none,txfuse,porder:ph,materialize"

// Combos returns the named layouts in report order, the paper's six
// combinations first.
func Combos() []Combo { return append([]Combo(nil), combos...) }

// Resolve maps a combo name or a raw pipeline spec to its pipeline. Names
// are looked up first, so "chain" is the chain combo rather than the bare
// chain pass; the resolved pipeline's String is the layout's canonical spec.
func Resolve(nameOrSpec string) (Pipeline, error) {
	names := make([]string, len(combos))
	for i, c := range combos {
		if c.Name == nameOrSpec {
			return ParsePipeline(c.Spec)
		}
		names[i] = c.Name
	}
	pl, err := ParsePipeline(nameOrSpec)
	if err != nil {
		return nil, fmt.Errorf("core: %q is neither a combo (%s) nor a pipeline spec: %w",
			nameOrSpec, strings.Join(names, "|"), err)
	}
	return pl, nil
}

// Report summarizes what the optimizer did.
type Report struct {
	Chains           int
	Units            int
	HotUnits         int
	HotWords         int64
	LongBranches     int
	PadWords         int64
	CFAReservedWords int64
	// FusedKinds counts the transaction kinds txfuse fused into single
	// straight-line placement units.
	FusedKinds int
	// ClonedProcs counts the shared procedures txfuse duplicated into
	// fused units, and CloneWords their total size — the code growth the
	// fusion budget caps.
	ClonedProcs int
	CloneWords  int64
}

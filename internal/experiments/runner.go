package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"github.com/hypertester/hypertester/internal/netsim"
)

// Spec is one row of the evaluation suite: the experiment and the cell of
// its result table that is its headline metric.
type Spec struct {
	ID       string
	Fn       func(Config) *Result
	Headline HeadlineSpec
}

// table is the evaluation suite in paper order — the one list of the 18
// experiments. htbench, the root bench file, the headline golden test and
// ./benchmark all read it through Specs().
var table = []Spec{
	{"Table 5", Table5LoC, HeadlineSpec{0, 0, "NTAPI-LoC"}},
	{"Fig. 9", Fig9SinglePort, HeadlineSpec{0, 0, "Gbps-64B@100G"}},
	{"Fig. 10", Fig10MultiPort, HeadlineSpec{3, 0, "Gbps-aggregate"}}, // n=4: full windows add MoonGen-only rows
	{"Fig. 11", Fig11RateControl40G, HeadlineSpec{1, 0, "ns-HT-MAE-1Mpps"}},
	{"Fig. 12", Fig12RateControl100G, HeadlineSpec{1, 0, "ns-MAE-1Mpps"}},
	{"Fig. 13", Fig13RandomQQ, HeadlineSpec{0, 0, "QQ-corr-normal"}},
	{"Fig. 14", Fig14Accelerator, HeadlineSpec{0, 0, "ns-RTT-64B"}},
	{"Fig. 15", Fig15Replicator, HeadlineSpec{0, 0, "ns-mcast-64B"}},
	{"Fig. 16", Fig16StatCollection, HeadlineSpec{4, 0, "Mbps-digest-256B"}},
	{"Fig. 17", Fig17ExactMatch, HeadlineSpec{-1, 0, "entries-16b"}},
	{"Table 6", Table6Cost, HeadlineSpec{2, 0, "USD-saved-per-Tbps"}},
	{"Table 7", Table7Resources, HeadlineSpec{-1, 5, "pct-SALU-reduce"}},
	{"Table 8", Table8SynFlood, HeadlineSpec{0, 0, "Gbps-testbed"}},
	{"Fig. 18", Fig18DelayTesting, HeadlineSpec{0, 0, "ns-HT-HW-mean"}},
	{"Ablation A", AblationSketchAccuracy, HeadlineSpec{0, 0, "counter-err-keys"}},
	{"Ablation B", AblationCuckooOccupancy, HeadlineSpec{2, 0, "pct-onchip-0.75"}},
	{"Ablation C", AblationTemplateAmplification, HeadlineSpec{2, 0, "amplification-x"}},
	{"Case study", CaseWebScale, HeadlineSpec{1, 0, "handshakes-per-s"}},
}

// Specs returns the evaluation suite in paper order. The slice is the
// caller's to filter or wrap.
func Specs() []Spec { return slices.Clone(table) }

// runSpec executes one experiment, containing any panic as a named failure:
// the suite keeps running, the panicking experiment reports a result whose
// notes carry the panic value, and Headline() on that result errors (so a
// crashed experiment can never masquerade as a measurement). The recovery
// note deliberately omits the stack trace — results render bit-identically
// across engines and worker counts, and goroutine stacks do not.
func runSpec(cfg Config, sp Spec) (res *Result) {
	defer func() {
		if p := recover(); p != nil {
			res = &Result{
				ID:    sp.ID,
				Title: "experiment failed",
				Notes: []string{fmt.Sprintf("PANIC: %v", p)},
			}
		}
	}()
	res = sp.Fn(cfg)
	if res == nil {
		res = &Result{ID: sp.ID, Title: "experiment failed",
			Notes: []string{"experiment returned no result"}}
	}
	return res
}

// Run executes specs across a GOMAXPROCS-bounded worker pool and returns
// results in input order regardless of completion order. Every experiment
// builds its own netsim.Sim and derives every random stream from cfg.Seed
// plus a component label, so no state is shared between workers and the
// output is bit-identical to a sequential run (TestParallelDeterminism pins
// this). A panicking experiment fails alone (runSpec): its slot carries a
// failure result and the rest of the suite completes.
func Run(cfg Config, specs []Spec) []*Result {
	out := make([]*Result, len(specs))
	netsim.ParMap(runtime.GOMAXPROCS(0), len(specs), func(i int) {
		out[i] = runSpec(cfg, specs[i])
	})
	return out
}

// All runs the whole suite on the parallel runner.
func All(cfg Config) []*Result { return Run(cfg, table) }

// HeadlineSpec locates an experiment's headline metric inside its result
// table. Row < 0 counts from the end (-1 = last row). Unit doubles as the
// custom-metric name the bench suite reports.
type HeadlineSpec struct {
	Row, Col int
	Unit     string
}

// Headline extracts an experiment's headline metric. It returns an error —
// rather than a silent zero — when the result has no such cell or the cell
// does not start with a number, so a broken experiment cannot masquerade as
// a real measurement. The cell is looked up by r.ID in the suite table, so a
// result produced through a wrapped Spec (htbench's timing closures) resolves
// like one produced by the table's own Fn.
func Headline(r *Result) (value float64, unit string, err error) {
	i := slices.IndexFunc(table, func(sp Spec) bool { return sp.ID == r.ID })
	if i < 0 {
		return 0, "", fmt.Errorf("experiments: no headline defined for %q", r.ID)
	}
	spec := table[i].Headline
	row := spec.Row
	if row < 0 {
		row += len(r.Rows)
	}
	if row < 0 || row >= len(r.Rows) || spec.Col >= len(r.Rows[row].Values) {
		return 0, "", fmt.Errorf("experiments: %s has no cell (%d,%d): %d rows",
			r.ID, spec.Row, spec.Col, len(r.Rows))
	}
	cell := r.Rows[row].Values[spec.Col]
	fields := strings.Fields(cell)
	if len(fields) == 0 {
		return 0, "", fmt.Errorf("experiments: %s cell (%d,%d) is empty", r.ID, spec.Row, spec.Col)
	}
	num := strings.TrimPrefix(fields[0], "$")
	num = strings.TrimSuffix(strings.TrimSuffix(num, "%"), "x")
	v, perr := strconv.ParseFloat(num, 64)
	if perr != nil {
		return 0, "", fmt.Errorf("experiments: %s cell (%d,%d) %q is not numeric",
			r.ID, spec.Row, spec.Col, cell)
	}
	return v, spec.Unit, nil
}

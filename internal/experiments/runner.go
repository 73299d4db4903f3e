package experiments

import "slices"

// Spec is one row of the evaluation suite: the experiment and the cell of
// its result table that is its headline metric.
type Spec struct {
	ID       string
	Fn       func(Config) *Result
	Headline HeadlineSpec
}

// table is the evaluation suite in paper order — the one list of the 18
// experiments. TestPaperTables and ./benchmark read it through Specs().
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

// HeadlineSpec locates an experiment's headline metric inside its result
// table. Row < 0 counts from the end (-1 = last row). Unit names the metric
// in testdata/headlines.golden.
type HeadlineSpec struct {
	Row, Col int
	Unit     string
}

package experiments

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
)

// ProgramSpec names one NTAPI source from the experiment suite together
// with the compiler options its experiment uses. The verifier corpus
// (verify_test.go) runs the symbolic analyzer and the witness differential
// over every spec.
type ProgramSpec struct {
	Name string
	Src  string
	Opts compiler.Options
}

// Compile compiles the spec exactly as its experiment would.
//
//htlint:ignore deadexport the corpus tests compile each program exactly as its experiment does
func (s ProgramSpec) Compile() (*compiler.Program, error) {
	task, err := ntapi.Parse(s.Name, s.Src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	prog, err := compiler.Compile(task, s.Opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	return prog, nil
}

// fig13Src is the Fig. 13 random-distribution workload with the given
// random(...) source-port setter.
func fig13Src(setSrc string) string {
	return fmt.Sprintf(`
T1 = trigger()
    .set([dip, sip, proto, dport], [9.9.9.9, 1.1.0.1, udp, 1])
    .set(sport, %s)
    .set(interval, 100ns)
    .set(port, 0)
`, setSrc)
}

// Programs returns the 18-program corpus: the four Table 5 applications,
// the seven Table 7 resource microbenchmarks, the figure workloads, the
// trace observability workload, and the §5.4 web case study.
func Programs() []ProgramSpec {
	specs := []ProgramSpec{
		{Name: "table5_throughput", Src: TaskThroughput, Opts: compiler.Options{MaxHeaderSpace: 1 << 16}},
		{Name: "table5_delay", Src: TaskDelay, Opts: compiler.Options{MaxHeaderSpace: 1 << 16}},
		{Name: "table5_ipscan", Src: TaskIPScan, Opts: compiler.Options{MaxHeaderSpace: 1 << 16}},
		{Name: "table5_synflood", Src: TaskSynFlood, Opts: compiler.Options{MaxHeaderSpace: 1 << 16}},
	}
	for i, c := range table7Cases {
		specs = append(specs, ProgramSpec{
			Name: fmt.Sprintf("table7_%02d", i+1),
			Src:  c.src,
			Opts: compiler.Options{ArraySize: 1 << 16},
		})
	}
	specs = append(specs,
		ProgramSpec{Name: "fig9_throughput_1port", Src: throughputSrc(64, "0")},
		ProgramSpec{Name: "fig10_throughput_4port", Src: throughputSrc(64, "[0, 1, 2, 3]")},
		ProgramSpec{Name: "fig11_rate_control", Src: rateSrc(128, 1000)},
		ProgramSpec{Name: "fig13_random_normal", Src: fig13Src("random('N', 30000, 2000, 16)")},
		ProgramSpec{Name: "fig13_random_exponential", Src: fig13Src("random('E', 8000, 0, 16)")},
		ProgramSpec{Name: "trace_observability", Src: traceSampleSrc},
		ProgramSpec{Name: "case_webscale", Src: caseWebScaleSrc},
	)
	return specs
}

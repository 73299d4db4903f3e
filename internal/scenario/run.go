package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// RunResult is one executed scenario: every metric the run observed and
// the verdict of every declared check.
type RunResult struct {
	Name    string        `json:"name"`
	Title   string        `json:"title,omitempty"`
	Pass    bool          `json:"pass"`
	Passed  int           `json:"passed"`
	Failed  int           `json:"failed"`
	Checks  []CheckResult `json:"checks"`
	Metrics []obs.Metric  `json:"metrics"`
	// Err is set when the scenario never produced metrics (compile error,
	// panic); such a run fails regardless of checks.
	Err string `json:"err,omitempty"`
}

// Run executes one scenario and evaluates its checks. workers > 0 overrides
// the topology's SimWorkers (the CLI's -simworkers and the differential
// tests use this); the observed metrics are bit-identical either way.
//
// Metric catalogue (names checks can reference), in recording order; each
// device's walk owns its leaf names, Run the prefixes:
//
//	port<i>.*           asic.Port.Describe (the tester's front-panel ports)
//	template<id>.fired  htps.Sender.Describe
//	query.<name>.matches/.bytes/.distinct/.delay_samples/.delay_mean_ns/...
//	sink<i>.*           testbed.Sink.Describe            (sink, hhsink)
//	hh<i>.*             HHSink.Describe                  (hhsink)
//	reflector<i>.*      testbed.Reflector.Describe       (reflector)
//	scantarget<i>.*     testbed.ScanTarget.Describe      (scantarget)
//	httpfarm<i>.*       testbed.HTTPServerFarm.Describe  (httpfarm)
//	trace.records (num), trace.sha256 (text)
//
// Sink-style DUTs reset at the end of the warmup so rate metrics cover the
// clean window; stateful DUTs (httpfarm, scantarget, reflector) accumulate
// across the whole run, warm-up included.
func Run(sc *Scenario, workers int) (*RunResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Program.Source == "" {
		return nil, fmt.Errorf("scenario %q: program file %q was not resolved at load time",
			sc.Name, sc.Program.File)
	}
	progName := sc.Program.Name
	if progName == "" {
		progName = sc.Name
	}
	trace := obs.NewTraceSet()
	rig, err := Build(sc.Topology, progName, string(sc.Program.Source), sc.Traffic.Seed, workers, trace)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	rig.Run(netsim.Ns(sc.Traffic.WarmupUs*1e3), netsim.Ns(sc.Traffic.WindowUs*1e3))
	ht := rig.Tester

	// Snapshot the trace before Reports(): the report flush drains digests
	// still in flight at the final boundary, and what is in flight there is
	// engine-dependent — the windowed trace is the engine-invariant oracle.
	traceRecords := trace.Len()
	sum := sha256.Sum256([]byte(trace.Canonical()))

	m := obs.NewRegistry()
	for i := range sc.Topology.Ports {
		ht.Port(i).Describe(m, fmt.Sprintf("port%d", i))
	}
	ht.Sender.Describe(m, "")
	for _, r := range ht.Reports() {
		pre := "query." + r.Query
		m.Num(pre, "matches", float64(r.Matches))
		m.Num(pre, "bytes", float64(r.Bytes))
		m.Num(pre, "distinct", float64(r.Distinct))
		m.Num(pre, "delay_samples", float64(r.DelaySamples))
		m.Num(pre, "delay_mean_ns", r.DelayMeanNs)
		m.Num(pre, "delay_min_ns", r.DelayMinNs)
		m.Num(pre, "delay_max_ns", r.DelayMaxNs)
	}
	for _, d := range rig.DUTs {
		d.Describe(m)
	}
	m.Num("trace", "records", float64(traceRecords))
	m.Text("trace", "sha256", hex.EncodeToString(sum[:]))

	res := &RunResult{Name: sc.Name, Title: sc.Title, Metrics: m.All()}
	for _, c := range sc.Checks {
		cr := c.Eval(m)
		res.Checks = append(res.Checks, cr)
		if cr.Pass {
			res.Passed++
		} else {
			res.Failed++
		}
	}
	res.Pass = res.Failed == 0
	return res, nil
}

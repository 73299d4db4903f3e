package experiments

import (
	"testing"
)

// TestSimWorkersDeterminism is the acceptance gate for the parallel
// discrete-event engine at the experiments layer: every rendered result —
// and therefore all 18 headline metrics — must be bit-identical whether the
// testbeds run on the sequential reference engine (SimWorkers=1) or are
// partitioned into per-device logical processes on the conservative
// parallel engine (SimWorkers=4). The full quick suite runs both ways so
// the per-packet timestamp streams behind Fig. 11–13's error metrics, the
// digest traffic behind Fig. 16, and the stateful case-study counters all
// participate in the comparison.
func TestSimWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential run")
	}
	seq := sequential(Config{Quick: true, Seed: 1}, Specs())
	par := sequential(Config{Quick: true, Seed: 1, SimWorkers: 4}, Specs())
	if len(seq) != len(par) {
		t.Fatalf("sequential ran %d experiments, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if s, p := seq[i].String(), par[i].String(); s != p {
			t.Errorf("%s: SimWorkers=4 diverges from sequential:\n--- SimWorkers=1\n%s\n--- SimWorkers=4\n%s",
				seq[i].ID, s, p)
		}
		hs, us, errS := Headline(seq[i])
		hp, up, errP := Headline(par[i])
		if errS != nil || errP != nil {
			t.Errorf("%s: headline errors: %v / %v", seq[i].ID, errS, errP)
			continue
		}
		if hs != hp || us != up {
			t.Errorf("%s: headline %v %s (SimWorkers=1) != %v %s (SimWorkers=4)",
				seq[i].ID, hs, us, hp, up)
		}
	}
}

// TestSimWorkersWorkerCountInvariance spot-checks that the engine-backed
// experiments agree across several worker counts, not just 1 vs 4, on the
// topologies with real cross-LP feedback (the case study's request/response
// loop) and mid-run clock driving (Fig. 13's field collection).
func TestSimWorkersWorkerCountInvariance(t *testing.T) {
	for _, fn := range []struct {
		name string
		run  func(Config) *Result
	}{
		{"Case study", CaseWebScale},
		{"Fig. 13", Fig13RandomQQ},
	} {
		want := fn.run(Config{Quick: true, Seed: 7, SimWorkers: 2}).String()
		for _, w := range []int{3, 8} {
			got := fn.run(Config{Quick: true, Seed: 7, SimWorkers: w}).String()
			if got != want {
				t.Errorf("%s: SimWorkers=%d diverges from SimWorkers=2:\n%s\nvs\n%s",
					fn.name, w, got, want)
			}
		}
	}
}

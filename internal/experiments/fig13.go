package experiments

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/stats"
)

// Fig13RandomQQ reproduces Fig. 13: the accuracy of on-switch random number
// generation via the inverse transformation method. HyperTester generates
// packets whose source port follows a normal or exponential distribution;
// the Q-Q comparison of observed values against the theoretical quantiles
// summarizes agreement (the paper shows Q-Q plots; we report the points'
// correlation plus selected quantiles).
func Fig13RandomQQ(cfg Config) *Result {
	res := &Result{
		ID:      "Fig. 13",
		Title:   "Random number generation accuracy (Q-Q)",
		Columns: []string{"corr", "q10 thy/smp", "q50 thy/smp", "q90 thy/smp"},
	}
	window := 2 * netsim.Millisecond
	if cfg.Quick {
		window = 400 * netsim.Microsecond
	}

	type dist struct {
		label  string
		setSrc string
		inv    func(p float64) float64
	}
	dists := []dist{
		{
			label:  "normal(30000,2000)",
			setSrc: "random('N', 30000, 2000, 16)",
			inv:    stats.NormalInvCDF(30000, 2000),
		},
		{
			label:  "exponential(mean 8000)",
			setSrc: "random('E', 8000, 0, 16)",
			inv:    stats.ExponentialInvCDF(1.0 / 8000),
		},
	}
	for _, d := range dists {
		src := fig13Src(d.setSrc)
		samples, err := collectField(cfg, src, cfg.Seed, window, func(s *netproto.Stack) float64 {
			return float64(s.UDP.SrcPort)
		})
		if err != nil {
			return errResult(res, err)
		}
		pts := stats.QQ(samples, d.inv, 99)
		corr := stats.QQCorrelation(pts)
		q := func(i int) string {
			return fmt.Sprintf("%.0f/%.0f", pts[i].Theoretical, pts[i].Sample)
		}
		res.Rows = append(res.Rows, Row{
			Label:  d.label,
			Values: []string{fmt.Sprintf("%.5f", corr), q(9), q(49), q(89)},
		})
	}
	res.Notes = append(res.Notes,
		"paper Fig. 13: Q-Q points hug the identity line for both distributions; the inverse-transform tables quantize extreme tails")
	return res
}

// collectField runs a generation task and extracts one numeric field per
// packet the sink receives after a 30 µs warm-up. The hook is installed
// before traffic starts, as Sink.OnPacket requires, and samples only once
// the warm-up has run.
func collectField(cfg Config, src string, seed int64, window netsim.Duration, extract func(*netproto.Stack) float64) ([]float64, error) {
	rig, sinks, err := htRig(cfg, src, []float64{100}, seed)
	if err != nil {
		return nil, err
	}
	var samples []float64
	var stack netproto.Stack
	sampling := false
	sinks[0].OnPacket = func(pkt *netproto.Packet, at netsim.Time) {
		defer pkt.Release() // the hook owns the packet and keeps nothing of it
		if !sampling {
			return
		}
		if err := stack.Decode(pkt.Data); err == nil {
			samples = append(samples, extract(&stack))
		}
	}
	rig.Run(30*netsim.Microsecond, 0)
	sampling = true
	rig.Partition.RunFor(window)
	return samples, nil
}

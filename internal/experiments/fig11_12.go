package experiments

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/moongen"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/stats"
	"github.com/hypertester/hypertester/internal/testbed"
)

func rateSrc(size int, intervalNs float64) string {
	return fmt.Sprintf(`
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set(length, %d)
    .set(interval, %.0fns)
    .set(port, 0)
`, size, intervalNs)
}

// htRateErrors measures HyperTester inter-departure errors at a target rate.
func htRateErrors(cfg Config, portGbps float64, size int, pps float64, window netsim.Duration) (stats.RateErrors, float64, error) {
	interval := 1e9 / pps
	sinks, _, _, err := htGenerate(cfg, rateSrc(size, interval), []float64{portGbps}, cfg.Seed,
		50*netsim.Microsecond, window, true)
	if err != nil {
		return stats.RateErrors{}, 0, err
	}
	return stats.InterDepartureErrors(sinks[0].Timestamps, interval), sinks[0].RatePps(), nil
}

// mgRateErrors measures MoonGen (NIC hardware rate control) errors.
func mgRateErrors(cfg Config, portGbps float64, size int, pps float64, window netsim.Duration) (stats.RateErrors, float64) {
	sim := netsim.New()
	g := moongen.New(sim, moongen.Config{
		Name: "mg", PortGbps: portGbps, FrameLen: size,
		TargetPps: pps, HWRateControl: true, Seed: cfg.Seed,
	})
	sink := testbed.NewSink(sim, "sink", portGbps)
	sink.RecordTimestamps = true
	g.Start(netsim.Time(window))
	testbed.Connect(sim, g.Iface, sink.Iface, 0)
	sim.RunUntil(netsim.Time(window + netsim.Millisecond))
	return stats.InterDepartureErrors(sink.Timestamps, 1e9/pps), sink.RatePps()
}

// Fig11RateControl40G reproduces Fig. 11: rate-control error metrics on a
// 40G port, HyperTester vs MoonGen with NIC hardware rate control, across
// generation speeds and packet sizes.
func Fig11RateControl40G(cfg Config) *Result {
	res := &Result{
		ID:      "Fig. 11",
		Title:   "Rate control on 40G: inter-departure error (ns)",
		Columns: []string{"HT MAE", "HT MAD", "HT RMSE", "MG MAE", "MG MAD", "MG RMSE", "ratio"},
	}
	type pt struct {
		label string
		size  int
		pps   float64
	}
	points := []pt{
		{"100Kpps/64B", 64, 1e5},
		{"1Mpps/64B", 64, 1e6},
		{"10Mpps/64B", 64, 1e7},
		{"1Mpps/512B", 512, 1e6},
		{"1Mpps/1280B", 1280, 1e6},
	}
	// The points are independent measurements, so the worker budget spreads
	// across them (each inner testbed stays sequential); every point writes
	// only its own row slot, keeping output order identical to a
	// sequential sweep.
	rows := make([]Row, len(points))
	errs := make([]error, len(points))
	netsim.ParMap(cfg.simWorkers(), len(points), func(i int) {
		p := points[i]
		window := windowFor(p.pps, cfg.Quick)
		he, _, err := htRateErrors(cfg.seq(), 40, p.size, p.pps, window)
		if err != nil {
			errs[i] = err
			return
		}
		me, _ := mgRateErrors(cfg.seq(), 40, p.size, p.pps, window)
		ratio := me.MAE / he.MAE
		rows[i] = Row{
			Label: p.label,
			Values: []string{
				f2(he.MAE), f2(he.MAD), f2(he.RMSE),
				f2(me.MAE), f2(me.MAD), f2(me.RMSE),
				fmt.Sprintf("%.0fx", ratio),
			},
		}
	})
	for _, err := range errs {
		if err != nil {
			return errResult(res, err)
		}
	}
	res.Rows = append(res.Rows, rows...)
	res.Notes = append(res.Notes,
		"paper Fig. 11: every HyperTester error metric is over one order of magnitude below MoonGen's")
	return res
}

// Fig12RateControl100G reproduces Fig. 12: HyperTester rate-control errors
// on a 100G port across speed and size — speed has little effect, errors
// grow with packet size (coarser template-arrival granularity).
func Fig12RateControl100G(cfg Config) *Result {
	res := &Result{
		ID:      "Fig. 12",
		Title:   "HyperTester rate control on 100G: error (ns)",
		Columns: []string{"MAE", "MAD", "RMSE"},
	}
	rates := []float64{1e5, 1e6, 1e7}
	if !cfg.Quick {
		rates = append(rates, 5e7)
	}
	type pt struct {
		label string
		size  int
		pps   float64
	}
	var points []pt
	for _, pps := range rates {
		points = append(points, pt{fmt.Sprintf("%s/64B", ppsLabel(pps)), 64, pps})
	}
	for _, size := range []int{256, 512, 1024, 1500} {
		points = append(points, pt{fmt.Sprintf("1Mpps/%dB", size), size, 1e6})
	}
	rows := make([]Row, len(points))
	errs := make([]error, len(points))
	netsim.ParMap(cfg.simWorkers(), len(points), func(i int) {
		p := points[i]
		he, _, err := htRateErrors(cfg.seq(), 100, p.size, p.pps, windowFor(p.pps, cfg.Quick))
		if err != nil {
			errs[i] = err
			return
		}
		rows[i] = Row{
			Label:  p.label,
			Values: []string{f2(he.MAE), f2(he.MAD), f2(he.RMSE)},
		}
	})
	for _, err := range errs {
		if err != nil {
			return errResult(res, err)
		}
	}
	res.Rows = append(res.Rows, rows...)
	res.Notes = append(res.Notes,
		"paper Fig. 12: speed barely affects errors; errors grow with packet size")
	return res
}

// windowFor sizes the measurement window so each point collects a useful
// number of inter-departure samples.
func windowFor(pps float64, quick bool) netsim.Duration {
	samples := 3000.0
	if quick {
		samples = 600
	}
	w := netsim.Duration(samples / pps * 1e12)
	if w < 100*netsim.Microsecond {
		w = 100 * netsim.Microsecond
	}
	if w > 20*netsim.Millisecond {
		w = 20 * netsim.Millisecond
	}
	return w
}

func ppsLabel(pps float64) string {
	switch {
	case pps >= 1e6:
		return fmt.Sprintf("%.0fMpps", pps/1e6)
	default:
		return fmt.Sprintf("%.0fKpps", pps/1e3)
	}
}

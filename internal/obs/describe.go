package obs

import "github.com/hypertester/hypertester/internal/netsim"

// DescribeSim records one Sim's scheduler state under prefix: pending, due
// and overflow event counts, occupied wheel buckets and executed events.
func DescribeSim(r *Registry, prefix string, s *netsim.Sim) {
	ws := s.WheelStats()
	r.Num(prefix, "events_pending", float64(ws.Pending))
	r.Num(prefix, "events_due", float64(ws.Due))
	r.Num(prefix, "events_overflow", float64(ws.Overflow))
	r.Num(prefix, "wheel_buckets", float64(ws.Buckets))
	r.Num(prefix, "executed", float64(s.Executed))
}

// DescribeEngine records the LP engine's state under prefix: worker and
// epoch counts, the last LBTS, and per-LP executed/sent/received/stall
// counters (keyed by LP name). The engine must be quiescent.
func DescribeEngine(r *Registry, prefix string, e *netsim.Engine) {
	st := e.Stats()
	r.Num(prefix, "workers", float64(st.Workers))
	r.Num(prefix, "epochs", float64(st.Epochs))
	r.Num(prefix, "lbts_ns", st.LBTS.Nanoseconds())
	for _, lp := range st.LPs {
		base := Join(prefix, "lp."+lp.Name)
		r.Num(base, "executed", float64(lp.Executed))
		r.Num(base, "sent", float64(lp.Sent))
		r.Num(base, "received", float64(lp.Received))
		r.Num(base, "stalls", float64(lp.Stalls))
	}
}

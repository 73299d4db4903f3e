package experiments

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/scenario"
	"github.com/hypertester/hypertester/internal/testbed"
)

// caseWebScaleSrc is the §5.4 web-testing workflow. sport sweeps 32768
// values; at 10us per SYN that is ~0.33s of distinct clients, far beyond
// any measurement window — no flow reuse.
const caseWebScaleSrc = `
T1 = trigger()
    .set([dip, dport, proto, flag, seq_no], [9.9.9.9, 80, tcp, SYN, 1])
    .set(sip, 1.1.0.1)
    .set(sport, range(1024, 33791, 1))
    .set(interval, 10us)
    .set(port, 0)
Q1 = query().filter(tcp_flag == SYN+ACK)
T2 = trigger(Q1)
    .set([dip, sip, dport, sport], [Q1.sip, Q1.dip, Q1.sport, Q1.dport])
    .set([proto, flag], [tcp, ACK])
    .set([seq_no, ack_no], [Q1.ack_no, Q1.seq_no + 1])
Q2 = query().filter(tcp_flag == SYN+ACK)
T3 = trigger(Q2)
    .set([dip, sip, dport, sport], [Q2.sip, Q2.dip, Q2.sport, Q2.dport])
    .set([proto, flag], [tcp, PSH+ACK])
    .set([seq_no, ack_no], [Q2.ack_no, Q2.seq_no + 1])
    .set(length, 78)
    .set(payload, "GET index.html")
Q3 = query().filter(tcp_flag == PSH+ACK).reduce(func=count).filter(count >= 5)
T5 = trigger(Q3)
    .set([dip, sip, dport, sport], [Q3.sip, Q3.dip, Q3.sport, Q3.dport])
    .set([proto, flag], [tcp, FIN])
    .set([seq_no, ack_no], [Q3.ack_no, Q3.seq_no + 1])
Q5 = query().filter(tcp_flag == SYN+ACK).reduce(func=sum)
`

// CaseWebScale validates the §5.4 workflow at the paper's stated scale:
// "suppose that the task creates 100K new clients per second … interval is
// 10us". The full stateless-connection lifecycle (SYN → SYN+ACK → ACK +
// HTTP GET → 5 data packets → FIN exchange) runs against the server farm,
// and the sustained connection-setup rate is measured.
func CaseWebScale(cfg Config) *Result {
	res := &Result{
		ID:      "Case study",
		Title:   "Web testing at 100K connections/s (stateless, §5.4)",
		Columns: []string{"value"},
	}
	window := 50 * netsim.Millisecond
	if cfg.Quick {
		window = 15 * netsim.Millisecond
	}

	// The rig gives tester and server farm a logical process each: the cable
	// between them is the partition boundary, so the stateless client side
	// and the stateful DUT advance concurrently under the parallel engine.
	rig, err := scenario.Build(scenario.Topology{Ports: []float64{100}, DUT: scenario.DUTHTTPFarm,
		CableDelayNs: testbed.DefaultCableDelay.Nanoseconds()},
		"webscale", caseWebScaleSrc, cfg.Seed, cfg.simWorkers(), nil)
	if err != nil {
		return errResult(res, err)
	}
	ht, farm := rig.Tester, rig.DUTs[0].Farm
	cfg.stats.track(ht)
	rig.Run(0, window)

	secs := window.Seconds()
	row := func(label, format string, args ...any) {
		res.Rows = append(res.Rows, Row{Label: label, Values: []string{fmt.Sprintf(format, args...)}})
	}
	row("new clients offered", "%.0f /s (interval 10us)", float64(ht.Sender.FiredCount(1))/secs)
	row("handshakes completed", "%.0f /s", float64(farm.Handshakes)/secs)
	row("HTTP requests served", "%.0f /s", float64(farm.Requests)/secs)
	row("connections closed (FIN)", "%.0f /s", float64(farm.FinReceived)/secs)
	row("connection state on tester", "%d bytes (stateless by design)", 0)
	row("open state on the server DUT", "%d connections", farm.OpenConnections())
	res.Notes = append(res.Notes,
		"the paper's §5.4 walkthrough assumes 100K new clients/s; every lifecycle step must track that rate without the tester holding any per-connection state")
	return res
}

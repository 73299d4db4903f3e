package scenario

import (
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/sketch"
	"github.com/hypertester/hypertester/internal/testbed"
)

// HHSink is the heavy-hitter DUT: a counting sink that additionally tracks
// exact per-flow packet counts and shadows every update into a Count-Min
// sketch, so a scenario can assert the sketch's one-sided-error guarantee
// (estimates never undercount) against ground truth — the comparison §5.2
// makes when arguing for exact counter-based queries.
type HHSink struct {
	Sink *testbed.Sink

	counts map[netproto.FlowKey]uint64
	// order remembers first-seen flow order so statistics never range over
	// the map (insertion order is deterministic; map order is not).
	order []netproto.FlowKey
	cm    *sketch.CountMin
	stack netproto.Stack
}

// hhSketchDepth and hhSketchWidth size the Count-Min shadow: small enough
// that skewed populations actually collide, so the overestimate metric is
// exercised, large enough that totals stay meaningful.
const (
	hhSketchDepth = 4
	hhSketchWidth = 512
)

// NewHHSink builds a heavy-hitter sink behind a fresh interface.
func NewHHSink(sim *netsim.Sim, name string, gbps float64) *HHSink {
	h := &HHSink{
		Sink:   testbed.NewSink(sim, name, gbps),
		counts: make(map[netproto.FlowKey]uint64),
		cm:     sketch.NewCountMin(hhSketchDepth, hhSketchWidth),
	}
	h.Sink.OnPacket = h.observe
	return h
}

func (h *HHSink) observe(pkt *netproto.Packet, _ netsim.Time) {
	// The OnPacket hook owns the packet; release it once decoded.
	defer pkt.Release()
	if err := h.stack.Decode(pkt.Data); err != nil {
		return
	}
	key, ok := netproto.FlowFromStack(&h.stack)
	if !ok {
		return
	}
	if _, seen := h.counts[key]; !seen {
		h.order = append(h.order, key)
	}
	h.counts[key]++
	kb := key.Bytes()
	h.cm.Add(kb[:], 1)
}

// Reset clears flow state and the underlying sink counters (end of warmup).
func (h *HHSink) Reset() {
	h.Sink.Reset()
	h.counts = make(map[netproto.FlowKey]uint64)
	h.order = h.order[:0]
	h.cm = sketch.NewCountMin(hhSketchDepth, hhSketchWidth)
}

// Describe records the flow population against the Count-Min shadow under
// prefix: flows, packets, the top flow's count, underestimates (flows whose
// estimate fell below the exact count — always 0 if the sketch honours its
// guarantee), the summed overestimate (the collision error a threshold check
// can bound), and the top flow itself as text. The underlying sink is
// described on its own. Flows are walked in first-seen order, deterministic
// across engines: the LP engine replays the sequential per-device event order.
func (h *HHSink) Describe(r *obs.Registry, prefix string) {
	var packets, top, over uint64
	var under int
	var topFlow netproto.FlowKey
	for _, key := range h.order {
		exact := h.counts[key]
		packets += exact
		if exact > top {
			top, topFlow = exact, key
		}
		kb := key.Bytes()
		if est := h.cm.Estimate(kb[:]); est < exact {
			under++
		} else {
			over += est - exact
		}
	}
	r.Num(prefix, "flows", float64(len(h.order)))
	r.Num(prefix, "packets", float64(packets))
	r.Num(prefix, "top_count", float64(top))
	r.Num(prefix, "underestimates", float64(under))
	r.Num(prefix, "overestimate_total", float64(over))
	r.Text(prefix, "top_flow", topFlow.String())
}

package obs

import (
	"fmt"
	"strconv"
)

// Metric is one recorded value. A numeric metric carries Num and its
// canonical text; a text metric (a trace digest, a flow key) carries only
// Text. The canonical text is what golden checks compare, so it is
// locale-free and stable: integers print bare, floats with %g.
type Metric struct {
	Name string  `json:"name"`
	Num  float64 `json:"num,omitempty"`
	Text string  `json:"text"`
	// IsNum distinguishes a numeric 0 from a text metric.
	IsNum bool `json:"is_num,omitempty"`
}

// Registry is the one metric list of a run. Devices describe their state into
// it — each through one Describe(r, prefix) walk that owns its leaf names and
// their order, while the caller owns the prefix — and every reader (scenario
// checks and results, the CLI, the sample trace, the benchmark) reads it
// back. A value is recorded when its device is described, so a registry is
// the state of the instant its walks ran. It is ordered, so what is rendered
// from it is byte-identical run after run, and a name recorded twice panics:
// a collision is a wiring bug. Not synchronized; a nil registry records
// nothing.
type Registry struct {
	list  []Metric
	index map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Join is the name a walk gives leaf under prefix: the two joined by a dot,
// or leaf alone under the empty prefix.
func Join(prefix, leaf string) string {
	if prefix == "" {
		return leaf
	}
	return prefix + "." + leaf
}

// Num records the numeric metric Join(prefix, leaf) with its canonical text.
func (r *Registry) Num(prefix, leaf string, v float64) {
	r.add(Metric{Name: Join(prefix, leaf), Num: v, Text: strconv.FormatFloat(v, 'g', -1, 64), IsNum: true})
}

// Text records the text metric Join(prefix, leaf).
func (r *Registry) Text(prefix, leaf, text string) {
	r.add(Metric{Name: Join(prefix, leaf), Text: text})
}

func (r *Registry) add(m Metric) {
	if r == nil {
		return
	}
	if _, dup := r.index[m.Name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.Name))
	}
	if r.index == nil {
		r.index = make(map[string]int)
	}
	r.index[m.Name] = len(r.list)
	r.list = append(r.list, m)
}

// Get returns a metric by name.
func (r *Registry) Get(name string) (Metric, bool) {
	if r == nil {
		return Metric{}, false
	}
	i, ok := r.index[name]
	if !ok {
		return Metric{}, false
	}
	return r.list[i], true
}

// All returns the metrics in recording order.
func (r *Registry) All() []Metric {
	if r == nil {
		return nil
	}
	return r.list
}

// Snapshot returns every value keyed by name: numeric metrics as float64,
// text metrics as string.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	out := make(map[string]any, len(r.list))
	for _, m := range r.list {
		if m.IsNum {
			out[m.Name] = m.Num
		} else {
			out[m.Name] = m.Text
		}
	}
	return out
}

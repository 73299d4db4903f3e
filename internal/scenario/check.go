package scenario

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/obs"
)

// CheckResult is one evaluated check.
type CheckResult struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Metric string `json:"metric"`
	Pass   bool   `json:"pass"`
	// Got is the observed value's canonical text; Detail says what was
	// expected, phrased for a failure report.
	Got    string `json:"got"`
	Detail string `json:"detail"`
}

// Eval evaluates one check against the observed metrics. A missing metric
// fails the check rather than erroring: a typo'd metric name in a suite
// file should read as a failed assertion with a clear message, not abort
// the scenario.
func (c Check) Eval(m *obs.Registry) CheckResult {
	res := CheckResult{Name: c.Label(), Kind: c.Kind, Metric: c.Metric}
	got, ok := m.Get(c.Metric)
	if !ok {
		res.Got = "(missing)"
		res.Detail = fmt.Sprintf("metric %q was not observed", c.Metric)
		return res
	}
	res.Got = got.Text
	switch c.Kind {
	case CheckThreshold:
		op := c.Op
		if op == "" {
			op = ">="
		}
		res.Detail = fmt.Sprintf("want %s %s %v", c.Metric, op, c.Value)
		if !got.IsNum {
			res.Detail += " (metric is not numeric)"
			return res
		}
		switch op {
		case ">=":
			res.Pass = got.Num >= c.Value
		case "<=":
			res.Pass = got.Num <= c.Value
		case ">":
			res.Pass = got.Num > c.Value
		case "<":
			res.Pass = got.Num < c.Value
		case "==":
			res.Pass = got.Num == c.Value
		case "!=":
			res.Pass = got.Num != c.Value
		}
	case CheckRange:
		res.Detail = fmt.Sprintf("want %v <= %s <= %v", c.Min, c.Metric, c.Max)
		res.Pass = got.IsNum && got.Num >= c.Min && got.Num <= c.Max
		if !got.IsNum {
			res.Detail += " (metric is not numeric)"
		}
	case CheckGolden:
		res.Detail = fmt.Sprintf("want %s == %q, byte-exact", c.Metric, c.Want)
		res.Pass = got.Text == c.Want
	}
	return res
}

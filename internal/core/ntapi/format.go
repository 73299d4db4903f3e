package ntapi

import (
	"fmt"
	"strings"
	"time"
)

// Format renders a task back into the textual NTAPI form Parse accepts —
// the tooling path for saving programmatically-built tasks and for
// normalizing hand-written ones. Parse(Format(task)) yields an equivalent
// task.
func Format(task *Task) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# task %s\n", task.Name)

	// Interleave triggers and queries in declaration order where
	// possible: queries must appear before the triggers they fire.
	emitted := map[string]bool{}
	var emitQuery func(q *Query)
	emitQuery = func(q *Query) {
		if emitted["q"+q.Name] {
			return
		}
		emitted["q"+q.Name] = true
		if q.Sent != nil {
			fmt.Fprintf(&b, "%s = query(%s)", q.Name, q.Sent.Name)
		} else {
			fmt.Fprintf(&b, "%s = query()", q.Name)
		}
		if q.Port >= 0 {
			fmt.Fprintf(&b, ".port(%d)", q.Port)
		}
		for _, f := range q.Filters {
			fmt.Fprintf(&b, ".filter(%s %s %s)", f.Field, f.Op, formatScalar(f.Field, f.Value))
		}
		if len(q.MapFields) > 0 {
			fmt.Fprintf(&b, ".map(p -> (%s))", strings.Join(q.MapFields, ", "))
		}
		switch q.Kind {
		case KindReduce:
			fmt.Fprintf(&b, ".reduce(func=%s%s)", q.Func, formatKeys(q.Keys))
		case KindDistinct:
			fmt.Fprintf(&b, ".distinct(%s)", strings.TrimPrefix(formatKeys(q.Keys), ", "))
		case KindDelay:
			fmt.Fprintf(&b, ".delay(%s)", strings.TrimPrefix(formatKeys(q.Keys), ", "))
		}
		for _, p := range q.Post {
			fmt.Fprintf(&b, ".filter(count %s %d)", p.Op, p.Value)
		}
		b.WriteString("\n")
	}

	for _, tr := range task.Triggers {
		if tr.From != nil {
			emitQuery(tr.From)
		}
		if tr.From != nil {
			fmt.Fprintf(&b, "%s = trigger(%s)", tr.Name, tr.From.Name)
		} else {
			fmt.Fprintf(&b, "%s = trigger()", tr.Name)
		}
		for _, so := range tr.Sets {
			if len(so.Fields) == 1 {
				fmt.Fprintf(&b, "\n    .set(%s, %s)", so.Fields[0], formatValue(so.Fields[0], so.Values[0]))
				continue
			}
			vals := make([]string, len(so.Values))
			for i, v := range so.Values {
				vals[i] = formatValue(so.Fields[i], v)
			}
			fmt.Fprintf(&b, "\n    .set([%s], [%s])",
				strings.Join(so.Fields, ", "), strings.Join(vals, ", "))
		}
		if tr.IntervalDist != nil {
			d := *tr.IntervalDist
			fmt.Fprintf(&b, "\n    .set(interval, random(%s, %g, %g))", distCode(d.Dist), d.P1, d.P2)
		} else if tr.Interval > 0 {
			fmt.Fprintf(&b, "\n    .set(interval, %s)", formatDuration(tr.Interval))
		}
		if tr.Loop > 0 {
			fmt.Fprintf(&b, "\n    .set(loop, %d)", tr.Loop)
		}
		if tr.Length != 0 && tr.Length != 64 {
			fmt.Fprintf(&b, "\n    .set(length, %d)", tr.Length)
		}
		if len(tr.PayloadV) > 0 {
			fmt.Fprintf(&b, "\n    .set(payload, \"%s\")", tr.PayloadV)
		}
		if len(tr.Ports) == 1 {
			fmt.Fprintf(&b, "\n    .set(port, %d)", tr.Ports[0])
		} else if len(tr.Ports) > 1 {
			ports := make([]string, len(tr.Ports))
			for i, p := range tr.Ports {
				ports[i] = fmt.Sprintf("%d", p)
			}
			fmt.Fprintf(&b, "\n    .set(port, [%s])", strings.Join(ports, ", "))
		}
		b.WriteString("\n")
	}
	for _, q := range task.Queries {
		emitQuery(q)
	}
	return b.String()
}

func formatKeys(keys []string) string {
	if len(keys) == 0 {
		return ""
	}
	return fmt.Sprintf(", keys={%s}", strings.Join(keys, ", "))
}

func distCode(d DistKind) string {
	switch d {
	case DistNormal:
		return "'N'"
	case DistExponential:
		return "'E'"
	default:
		return "'U'"
	}
}

// formatScalar renders a filter value; IP-ish fields print dotted quads so
// the output reads like the paper's listings.
func formatScalar(field string, v uint64) string {
	if strings.Contains(field, "ip") && v > 0xffff {
		return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return fmt.Sprintf("%d", v)
}

func formatValue(field string, v Value) string {
	switch val := v.(type) {
	case Const:
		return formatScalar(field, uint64(val))
	case List:
		parts := make([]string, len(val))
		for i, x := range val {
			parts[i] = fmt.Sprintf("%d", x)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case Range:
		return fmt.Sprintf("range(%d, %d, %d)", val.Start, val.End, val.Step)
	case Random:
		return fmt.Sprintf("random(%s, %g, %g, %d)", distCode(val.Dist), val.P1, val.P2, val.Bits)
	case Ref:
		// The source query's name is not stored in the ref; Parse
		// resolves any query prefix, so emit a stable placeholder.
		switch {
		case val.Offset > 0:
			return fmt.Sprintf("q.%s + %d", val.Field, val.Offset)
		case val.Offset < 0:
			return fmt.Sprintf("q.%s - %d", val.Field, -val.Offset)
		}
		return "q." + val.Field
	case Payload:
		// Verbatim, as Parse reads it: the text between the quotes.
		return `"` + string(val) + `"`
	}
	return v.String()
}

func formatDuration(d time.Duration) string {
	switch {
	case d%time.Millisecond == 0:
		return fmt.Sprintf("%dms", d/time.Millisecond)
	case d%time.Microsecond == 0:
		return fmt.Sprintf("%dus", d/time.Microsecond)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

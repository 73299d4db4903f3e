package ntapi

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"github.com/hypertester/hypertester/internal/netproto"
)

// Parse reads the textual task format, a line-oriented rendering of the
// paper's NTAPI listings (Tables 3 and 4):
//
//	# throughput testing
//	T1 = trigger()
//	    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
//	    .set([loop, length], [0, 64])
//	    .set(port, 0)
//	Q1 = query(T1).map(pkt_len).reduce(func=sum)
//	Q2 = query().map(pkt_len).reduce(func=sum)
//
// Statements start at column 0 with "Name = trigger(...)" or
// "Name = query(...)"; continuation lines start with ".". Lines beginning
// with "#" are comments. CountLoC applies the Table 5 counting rule
// (statements and continuations count; comments and blanks do not).
func Parse(name, src string) (*Task, error) {
	task := NewTask(name)
	for i, stmt := range logicalStatements(src) {
		if err := parseStatement(task, stmt); err != nil {
			return nil, fmt.Errorf("ntapi: statement %d (%s...): %w", i+1, firstWord(stmt), err)
		}
	}
	if len(task.Triggers) == 0 && len(task.Queries) == 0 {
		return nil, fmt.Errorf("ntapi: task %q is empty", name)
	}
	return task, nil
}

// CountLoC counts NTAPI lines of code the way Table 5 does: every non-blank,
// non-comment source line.
func CountLoC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		n++
	}
	return n
}

func firstWord(s string) string {
	if i := strings.IndexAny(s, " ="); i > 0 {
		return s[:i]
	}
	if len(s) > 10 {
		return s[:10]
	}
	return s
}

// logicalStatements joins continuation lines (starting with ".") onto their
// statement line.
func logicalStatements(src string) []string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		if strings.HasPrefix(t, ".") && len(out) > 0 {
			out[len(out)-1] += t
			continue
		}
		out = append(out, t)
	}
	return out
}

func parseStatement(task *Task, stmt string) error {
	eq := strings.Index(stmt, "=")
	if eq < 0 {
		return fmt.Errorf("missing '='")
	}
	name := strings.TrimSpace(stmt[:eq])
	rest := strings.TrimSpace(stmt[eq+1:])
	if name == "" {
		return fmt.Errorf("missing statement name")
	}
	if !isIdent(name) {
		return fmt.Errorf("statement name %q is not an identifier", name)
	}

	calls, err := splitCalls(rest)
	if err != nil {
		return err
	}
	if len(calls) == 0 {
		return fmt.Errorf("empty statement body")
	}

	if task.FindTrigger(name) != nil || task.FindQuery(name) != nil {
		return fmt.Errorf("duplicate statement name %q", name)
	}

	head := calls[0]
	switch head.fn {
	case "trigger":
		var tr *Trigger
		if arg := strings.TrimSpace(head.args); arg != "" {
			q := task.FindQuery(arg)
			if q == nil {
				return fmt.Errorf("trigger(%s): unknown query", arg)
			}
			tr = task.TriggerOn(q)
		} else {
			tr = task.Trigger()
		}
		tr.Name = name
		return applyTriggerCalls(task, tr, calls[1:])
	case "query":
		var q *Query
		if arg := strings.TrimSpace(head.args); arg != "" {
			t := task.FindTrigger(arg)
			if t == nil {
				return fmt.Errorf("query(%s): unknown trigger", arg)
			}
			q = task.QueryOf(t)
		} else {
			q = task.Query()
		}
		q.Name = name
		return applyQueryCalls(q, calls[1:])
	default:
		return fmt.Errorf("unknown primitive %q (want trigger or query)", head.fn)
	}
}

type call struct {
	fn   string
	args string
}

// splitCalls decomposes "trigger().set(a, b).set(c, d)" into calls,
// respecting nesting inside parentheses and brackets. Every call after the
// first is chained by exactly one '.', and every call is named by an
// identifier.
func splitCalls(s string) ([]call, error) {
	var out []call
	i := 0
	for {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i >= len(s) {
			break
		}
		if len(out) > 0 {
			if s[i] != '.' {
				return nil, fmt.Errorf("expected '.' before %q", s[i:])
			}
			i++
		}
		j := i
		for j < len(s) && s[j] != '(' {
			j++
		}
		if j >= len(s) {
			return nil, fmt.Errorf("expected '(' after %q", s[i:])
		}
		fn := strings.TrimSpace(s[i:j])
		if !isIdent(fn) {
			return nil, fmt.Errorf("%q does not name a call", fn)
		}
		depth := 0
		k := j
		for ; k < len(s); k++ {
			switch s[k] {
			case '(', '[':
				depth++
			case ')', ']':
				depth--
			}
			if depth == 0 {
				break
			}
		}
		if depth != 0 {
			return nil, fmt.Errorf("unbalanced parentheses in %q", s[i:])
		}
		out = append(out, call{fn: fn, args: s[j+1 : k]})
		i = k + 1
	}
	return out, nil
}

// splitTop splits a comma-separated list at nesting depth zero.
func splitTop(s string) []string {
	var out []string
	depth, start := 0, 0
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inStr = !inStr
		case inStr:
		case c == '(' || c == '[' || c == '{':
			depth++
		case c == ')' || c == ']' || c == '}':
			depth--
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}

func applyTriggerCalls(task *Task, tr *Trigger, calls []call) error {
	for _, c := range calls {
		if c.fn != "set" {
			return fmt.Errorf("trigger %s: unknown method .%s", tr.Name, c.fn)
		}
		parts := splitTop(c.args)
		if len(parts) != 2 {
			return fmt.Errorf("trigger %s: set wants (fields, values), got %q", tr.Name, c.args)
		}
		fields, err := parseNameList(parts[0])
		if err != nil {
			return fmt.Errorf("trigger %s: set: %w", tr.Name, err)
		}
		var valueStrs []string
		if len(fields) == 1 {
			// A single field takes the whole expression — a bracketed
			// second argument is a list *value*, not parallel values.
			valueStrs = []string{strings.TrimSpace(parts[1])}
		} else {
			valueStrs = parseRawList(parts[1])
		}
		if len(fields) != len(valueStrs) {
			return fmt.Errorf("trigger %s: %d fields but %d values", tr.Name, len(fields), len(valueStrs))
		}
		for i, f := range fields {
			if err := applyTriggerSet(tr, f, valueStrs[i]); err != nil {
				return fmt.Errorf("trigger %s: set %s: %w", tr.Name, f, err)
			}
		}
	}
	return nil
}

// applyTriggerSet routes control fields (Table 1) to their dedicated
// settings and header fields to Set operations.
func applyTriggerSet(tr *Trigger, field, raw string) error {
	switch field {
	case "interval":
		if strings.HasPrefix(raw, "random(") {
			v, err := parseValue(raw)
			if err != nil {
				return err
			}
			r, ok := v.(Random)
			if !ok {
				return fmt.Errorf("interval wants a duration or random(...)")
			}
			tr.IntervalDist = &r
			return nil
		}
		d, err := parseDuration(raw)
		if err != nil {
			return err
		}
		tr.Interval = d
		return nil
	case "port":
		ports, err := parseIntList(raw)
		if err != nil {
			return err
		}
		tr.Ports = ports
		return nil
	case "loop":
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return err
		}
		tr.Loop = n
		return nil
	case "length", "pkt_len":
		n, err := strconv.Atoi(raw)
		if err != nil {
			return err
		}
		tr.Length = n
		return nil
	case "payload":
		v, err := parseValue(raw)
		if err != nil {
			return err
		}
		p, ok := v.(Payload)
		if !ok {
			return fmt.Errorf("payload wants a quoted string")
		}
		tr.PayloadV = []byte(p)
		return nil
	}
	v, err := parseValue(raw)
	if err != nil {
		return err
	}
	tr.Set(field, v)
	return nil
}

func applyQueryCalls(q *Query, calls []call) error {
	for _, c := range calls {
		switch c.fn {
		case "filter":
			p, err := parsePredicate(c.args)
			if err != nil {
				return fmt.Errorf("query %s: %w", q.Name, err)
			}
			if q.Kind == KindReduce || q.Kind == KindDistinct {
				q.Post = append(q.Post, p)
			} else {
				q.Filters = append(q.Filters, p)
			}
		case "map":
			arg := strings.TrimSpace(c.args)
			arg = strings.TrimPrefix(arg, "p ->")
			arg = strings.TrimPrefix(strings.TrimSpace(arg), "(")
			arg = strings.TrimSuffix(arg, ")")
			fields, err := parseNameList(arg)
			if err != nil {
				return fmt.Errorf("query %s: map: %w", q.Name, err)
			}
			q.MapFields = fields
		case "reduce":
			fn, keys, err := parseReduceArgs(c.args)
			if err != nil {
				return fmt.Errorf("query %s: %w", q.Name, err)
			}
			q.Reduce(fn, keys...)
		case "distinct":
			_, keys, err := parseReduceArgs(c.args)
			if err != nil {
				return fmt.Errorf("query %s: %w", q.Name, err)
			}
			q.Distinct(keys...)
		case "delay":
			keys := []string{}
			if strings.TrimSpace(c.args) != "" {
				_, ks, err := parseReduceArgs(c.args)
				if err != nil {
					return fmt.Errorf("query %s: %w", q.Name, err)
				}
				keys = ks
			}
			q.Delay(keys...)
		case "port":
			n, err := strconv.Atoi(strings.TrimSpace(c.args))
			if err != nil {
				return fmt.Errorf("query %s: port: %w", q.Name, err)
			}
			q.Port = n
		default:
			return fmt.Errorf("query %s: unknown method .%s", q.Name, c.fn)
		}
	}
	return nil
}

func parseReduceArgs(args string) (AggFunc, []string, error) {
	fn := AggCount
	var keys []string
	for _, part := range splitTop(args) {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return fn, nil, fmt.Errorf("reduce/distinct arg %q wants key=value", part)
		}
		k, v := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		switch k {
		case "func":
			switch AggFunc(v) {
			case AggSum, AggCount, AggMax, AggMin:
				fn = AggFunc(v)
			default:
				return fn, nil, fmt.Errorf("unknown reduce func %q", v)
			}
		case "keys":
			var err error
			if keys, err = parseNameList(strings.Trim(v, "{}")); err != nil {
				return fn, nil, err
			}
		default:
			return fn, nil, fmt.Errorf("unknown reduce arg %q", k)
		}
	}
	return fn, keys, nil
}

func parsePredicate(s string) (Predicate, error) {
	for _, op := range []CmpOp{OpEq, OpNe, OpLe, OpGe, OpLt, OpGt} {
		if i := strings.Index(s, string(op)); i > 0 {
			field := strings.TrimSpace(s[:i])
			if !isFieldName(field) {
				return Predicate{}, fmt.Errorf("filter %q: %q is not a field name", s, field)
			}
			raw := strings.TrimSpace(s[i+len(op):])
			v, err := parseScalar(raw)
			if err != nil {
				return Predicate{}, fmt.Errorf("filter %q: %w", s, err)
			}
			return Predicate{Field: field, Op: op, Value: v}, nil
		}
	}
	return Predicate{}, fmt.Errorf("filter %q: no comparison operator", s)
}

// parseNameList splits "[a, b.c]" or a single name into field names, each an
// identifier or a dotted path of them (ipv4.id).
func parseNameList(s string) ([]string, error) {
	s = strings.Trim(strings.TrimSpace(s), "[]")
	var out []string
	for _, p := range strings.Split(s, ",") {
		t := strings.TrimSpace(p)
		if t == "" {
			continue
		}
		if !isFieldName(t) {
			return nil, fmt.Errorf("%q is not a field name", t)
		}
		out = append(out, t)
	}
	return out, nil
}

// isFieldName reports whether s is an identifier or a dotted path of them.
func isFieldName(s string) bool {
	for _, seg := range strings.Split(s, ".") {
		if !isIdent(seg) {
			return false
		}
	}
	return true
}

// isIdent reports whether s is a letter or '_' followed by letters, digits
// and '_'.
func isIdent(s string) bool {
	for i, c := range s {
		if c != '_' && !unicode.IsLetter(c) && (i == 0 || !unicode.IsDigit(c)) {
			return false
		}
	}
	return s != ""
}

// parseRawList splits "[a, b, c]" or a single value into raw value strings.
func parseRawList(s string) []string {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		return splitTop(s[1 : len(s)-1])
	}
	return []string{s}
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, p := range parseRawList(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad port %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad interval %q", s)
	}
	return d, nil
}

// parseScalar parses constants: integers, IPs, protocol names, TCP flag
// expressions.
func parseScalar(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "udp":
		return uint64(netproto.IPProtoUDP), nil
	case "tcp":
		return uint64(netproto.IPProtoTCP), nil
	case "icmp":
		return uint64(netproto.IPProtoICMP), nil
	}
	if flags, ok := parseFlags(s); ok {
		return uint64(flags), nil
	}
	if strings.Count(s, ".") == 3 {
		ip, err := netproto.ParseIPv4(s)
		if err != nil {
			return 0, err
		}
		return uint64(ip), nil
	}
	n, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return n, nil
}

func parseFlags(s string) (uint8, bool) {
	names := map[string]uint8{
		"SYN": netproto.TCPSyn, "ACK": netproto.TCPAck, "FIN": netproto.TCPFin,
		"RST": netproto.TCPRst, "PSH": netproto.TCPPsh, "URG": netproto.TCPUrg,
	}
	var flags uint8
	for _, part := range strings.Split(s, "+") {
		f, ok := names[strings.TrimSpace(part)]
		if !ok {
			return 0, false
		}
		flags |= f
	}
	return flags, true
}

// parseValue parses a full Table 2 value: constant, list, range array,
// random array, query-record reference, or quoted payload.
func parseValue(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, `"`) && strings.HasSuffix(s, `"`) && len(s) >= 2:
		return Payload(s[1 : len(s)-1]), nil

	case strings.HasPrefix(s, "range(") && strings.HasSuffix(s, ")"):
		parts := splitTop(s[len("range(") : len(s)-1])
		if len(parts) != 3 {
			return nil, fmt.Errorf("range wants 3 args, got %q", s)
		}
		var vals [3]uint64
		for i, p := range parts {
			v, err := parseScalar(p)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return Range{Start: vals[0], End: vals[1], Step: vals[2]}, nil

	case strings.HasPrefix(s, "random(") && strings.HasSuffix(s, ")"):
		parts := splitTop(s[len("random(") : len(s)-1])
		if len(parts) < 3 {
			return nil, fmt.Errorf("random wants (dist, p1, p2[, bits]), got %q", s)
		}
		dist, err := parseDist(parts[0])
		if err != nil {
			return nil, err
		}
		p1, err1 := strconv.ParseFloat(parts[1], 64)
		p2, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("random params in %q", s)
		}
		bits := 16
		if len(parts) == 4 {
			b, err := strconv.Atoi(parts[3])
			if err != nil {
				return nil, fmt.Errorf("random bits in %q", s)
			}
			bits = b
		}
		return Random{Dist: dist, P1: p1, P2: p2, Bits: bits}, nil

	case strings.HasPrefix(s, "["):
		var list List
		for _, p := range parseRawList(s) {
			v, err := parseScalar(p)
			if err != nil {
				return nil, err
			}
			list = append(list, v)
		}
		return list, nil

	case isQueryRef(s):
		return parseRef(s)
	}
	v, err := parseScalar(s)
	if err != nil {
		return nil, err
	}
	return Const(v), nil
}

func parseDist(s string) (DistKind, error) {
	s = strings.Trim(strings.TrimSpace(s), "'\"")
	switch s {
	case "U", "uniform":
		return DistUniform, nil
	case "N", "normal":
		return DistNormal, nil
	case "E", "exponential", "exp":
		return DistExponential, nil
	}
	return "", fmt.Errorf("unknown distribution %q", s)
}

// isQueryRef recognizes "Qn.field" style references (an identifier with a
// dot where the prefix is not a known header name).
func isQueryRef(s string) bool {
	i := strings.Index(s, ".")
	if i <= 0 {
		return false
	}
	prefix := s[:i]
	if !isIdent(prefix) {
		return false
	}
	switch prefix {
	case "ipv4", "tcp", "udp", "eth", "icmp", "meta":
		return false
	}
	// Must not be an IP.
	if strings.Count(s, ".") == 3 {
		return false
	}
	return true
}

func parseRef(s string) (Value, error) {
	i := strings.Index(s, ".")
	rest := s[i+1:]
	offset := int64(0)
	if j := strings.IndexAny(rest, "+-"); j > 0 {
		n, err := strconv.ParseInt(strings.ReplaceAll(rest[j:], " ", ""), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad reference offset in %q", s)
		}
		offset = n
		rest = strings.TrimSpace(rest[:j])
	}
	if !isFieldName(rest) {
		return nil, fmt.Errorf("%q is not a field name in reference %q", rest, s)
	}
	return Ref{Field: rest, Offset: offset}, nil
}

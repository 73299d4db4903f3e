package ntapi

import (
	"fmt"
	"time"
)

// SetOp assigns values to fields for the packets a trigger generates
// (Table 2's set primitive).
type SetOp struct {
	Fields []string
	Values []Value
}

// Trigger defines one packet stream (§4.1). A trigger with From == nil
// starts generating when the task starts; a query-based trigger fires once
// per record its query emits (stateless connections).
type Trigger struct {
	ID   int
	Name string
	// From is the query whose matches trigger generation, or nil.
	From *Query
	Sets []SetOp

	// Control fields (Table 1).
	Interval time.Duration // inter-departure interval; 0 = line rate
	// IntervalDist, when non-nil, draws each inter-departure interval
	// from a distribution (params in nanoseconds) — §3.1's "random
	// inter-departure time" requirement.
	IntervalDist *Random
	Ports        []int  // injection ports
	Loop         uint64 // times to re-generate the stream; 0 = forever
	Length       int    // frame length in bytes
	PayloadV     []byte // constant payload content

	task *Task
}

// Set assigns a value to one field, returning the trigger for chaining.
func (t *Trigger) Set(field string, v Value) *Trigger {
	t.Sets = append(t.Sets, SetOp{Fields: []string{field}, Values: []Value{v}})
	return t
}

// SetMany assigns values to several fields at once, mirroring the paper's
// set([f1, f2], [v1, v2]) form.
//
//htlint:ignore deadexport NTAPI's fluent Go API: tests build tasks without the .nt parser
func (t *Trigger) SetMany(fields []string, values []Value) *Trigger {
	t.Sets = append(t.Sets, SetOp{Fields: fields, Values: values})
	return t
}

// WithInterval sets the inter-departure interval (rate control).
//
//htlint:ignore deadexport NTAPI's fluent Go API: tests build tasks without the .nt parser
func (t *Trigger) WithInterval(d time.Duration) *Trigger { t.Interval = d; return t }

// WithIntervalDist draws inter-departure intervals from a distribution
// whose parameters are in nanoseconds.
//
//htlint:ignore deadexport NTAPI's fluent Go API: tests build tasks without the .nt parser
func (t *Trigger) WithIntervalDist(r Random) *Trigger { t.IntervalDist = &r; return t }

// WithPorts sets the injection ports.
//
//htlint:ignore deadexport NTAPI's fluent Go API: tests build tasks without the .nt parser
func (t *Trigger) WithPorts(ports ...int) *Trigger { t.Ports = ports; return t }

// WithLoop sets how many packets to generate before stopping (0 = forever).
//
//htlint:ignore deadexport NTAPI's fluent Go API: tests build tasks without the .nt parser
func (t *Trigger) WithLoop(n uint64) *Trigger { t.Loop = n; return t }

// WithLength sets the generated frame length.
//
//htlint:ignore deadexport NTAPI's fluent Go API: tests build tasks without the .nt parser
func (t *Trigger) WithLength(n int) *Trigger { t.Length = n; return t }

// WithPayload sets the constant payload.
//
//htlint:ignore deadexport NTAPI's fluent Go API: tests build tasks without the .nt parser
func (t *Trigger) WithPayload(p []byte) *Trigger { t.PayloadV = p; return t }

// CmpOp is a filter comparison operator.
type CmpOp string

// Comparison operators.
const (
	OpEq CmpOp = "=="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Predicate is one filter condition over a packet field or, after a reduce,
// over the aggregate ("count").
type Predicate struct {
	Field string
	Op    CmpOp
	Value uint64
}

func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %d", p.Field, p.Op, p.Value)
}

// AggFunc is a reduce aggregation function.
type AggFunc string

// Aggregations supported by reduce.
const (
	AggSum   AggFunc = "sum"
	AggCount AggFunc = "count"
	AggMax   AggFunc = "max"
	AggMin   AggFunc = "min"
)

// QueryKind distinguishes the terminal operator of a query.
type QueryKind string

// Query kinds.
const (
	KindCapture  QueryKind = "capture"  // filter only: every match is a record
	KindReduce   QueryKind = "reduce"   // keyed aggregation
	KindDistinct QueryKind = "distinct" // distinct-key counting
	// KindDelay measures per-key one-way delay: the sent side stores a
	// pipeline timestamp keyed by the packet (state-based delay testing,
	// the Fig. 18b variant); the received side computes now - stored.
	KindDelay QueryKind = "delay"
)

// Query defines a packet-stream query (§4.1): a filter chain over either
// received traffic or the sent traffic of one trigger, optionally
// terminated by reduce or distinct.
type Query struct {
	ID   int
	Name string
	// Sent, when non-nil, selects the sent traffic of that trigger.
	Sent *Trigger
	// Port restricts received-traffic monitoring to one port (-1 = any).
	Port int

	Filters []Predicate
	// MapFields is the projection (map(p -> (f1, f2))). For reduce, the
	// first mapped field is the aggregated value; empty means count.
	MapFields []string

	Kind QueryKind
	// Keys are the grouping keys for reduce/distinct; empty defaults to
	// the 5-tuple.
	Keys []string
	Func AggFunc
	// Post are predicates applied to the aggregate after reduce
	// (the paper's .filter(count < 5)).
	Post []Predicate

	task *Task
}

// Filter appends a packet-field predicate.
//
//htlint:ignore deadexport NTAPI's fluent Go API: tests build tasks without the .nt parser
func (q *Query) Filter(field string, op CmpOp, v uint64) *Query {
	if q.Kind == KindReduce || q.Kind == KindDistinct {
		q.Post = append(q.Post, Predicate{Field: field, Op: op, Value: v})
		return q
	}
	q.Filters = append(q.Filters, Predicate{Field: field, Op: op, Value: v})
	return q
}

// Map sets the projection.
//
//htlint:ignore deadexport NTAPI's fluent Go API: tests build tasks without the .nt parser
func (q *Query) Map(fields ...string) *Query { q.MapFields = fields; return q }

// Reduce turns the query into a keyed aggregation.
func (q *Query) Reduce(fn AggFunc, keys ...string) *Query {
	q.Kind = KindReduce
	q.Func = fn
	q.Keys = keys
	return q
}

// Distinct turns the query into distinct-key counting.
func (q *Query) Distinct(keys ...string) *Query {
	q.Kind = KindDistinct
	q.Keys = keys
	return q
}

// Delay turns the query into a state-based delay measurement keyed by the
// given fields (default ipv4.id): sent packets matching the key store a
// timestamp; received packets matching it report now - stored.
func (q *Query) Delay(keys ...string) *Query {
	q.Kind = KindDelay
	q.Keys = keys
	return q
}

// Task is a complete network testing task: a set of triggers and queries.
type Task struct {
	Name     string
	Triggers []*Trigger
	Queries  []*Query
}

// NewTask creates an empty task.
func NewTask(name string) *Task { return &Task{Name: name} }

// Trigger creates and registers a start trigger. The default frame length
// is 64 bytes, the minimum test packet.
func (t *Task) Trigger() *Trigger {
	tr := &Trigger{ID: len(t.Triggers) + 1, task: t, Length: 64}
	tr.Name = fmt.Sprintf("T%d", tr.ID)
	t.Triggers = append(t.Triggers, tr)
	return tr
}

// TriggerOn creates and registers a query-based trigger: it generates one
// packet per record q emits (the stateless-connection mechanism, §5.3).
func (t *Task) TriggerOn(q *Query) *Trigger {
	tr := t.Trigger()
	tr.From = q
	return tr
}

// Query creates and registers a received-traffic query.
func (t *Task) Query() *Query {
	q := &Query{ID: len(t.Queries) + 1, task: t, Port: -1, Kind: KindCapture}
	q.Name = fmt.Sprintf("Q%d", q.ID)
	t.Queries = append(t.Queries, q)
	return q
}

// QueryOf creates and registers a query over the sent traffic of tr.
func (t *Task) QueryOf(tr *Trigger) *Query {
	q := t.Query()
	q.Sent = tr
	return q
}

// FindTrigger returns the registered trigger with the given name, or nil.
func (t *Task) FindTrigger(name string) *Trigger {
	for _, tr := range t.Triggers {
		if tr.Name == name {
			return tr
		}
	}
	return nil
}

// FindQuery returns the registered query with the given name, or nil.
func (t *Task) FindQuery(name string) *Query {
	for _, q := range t.Queries {
		if q.Name == name {
			return q
		}
	}
	return nil
}

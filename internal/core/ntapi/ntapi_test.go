package ntapi

import (
	"testing"
	"time"
)

func TestBuilderThroughputTask(t *testing.T) {
	// Table 3's throughput-testing task via the Go builder.
	task := NewTask("throughput")
	t1 := task.Trigger().
		SetMany([]string{"dip", "sip", "proto", "dport", "sport"},
			[]Value{IP("9.9.9.9"), IP("1.1.0.1"), Const(17), Const(1), Const(1)}).
		WithLoop(0).WithLength(64).WithPorts(0)
	q1 := task.QueryOf(t1).Map("pkt_len").Reduce(AggSum)
	q2 := task.Query().Map("pkt_len").Reduce(AggSum)

	if len(task.Triggers) != 1 || len(task.Queries) != 2 {
		t.Fatalf("registered %d triggers, %d queries", len(task.Triggers), len(task.Queries))
	}
	if q1.Sent != t1 {
		t.Fatal("QueryOf did not bind the trigger")
	}
	if q2.Sent != nil {
		t.Fatal("plain query should monitor received traffic")
	}
	if t1.Length != 64 || len(t1.Sets) != 1 || len(t1.Sets[0].Fields) != 5 {
		t.Fatalf("trigger config: %+v", t1)
	}
	if q1.Kind != KindReduce || q1.Func != AggSum {
		t.Fatalf("query kind: %+v", q1)
	}
}

func TestBuilderQueryBasedTrigger(t *testing.T) {
	task := NewTask("web")
	q := task.Query().Filter("tcp_flag", OpEq, 18)
	tr := task.TriggerOn(q).
		Set("dip", Ref{Field: "sip"}).
		Set("seq_no", Ref{Field: "ack_no"}).
		Set("ack_no", Ref{Field: "seq_no", Offset: 1})
	if tr.From != q {
		t.Fatal("TriggerOn did not bind the query")
	}
	if len(tr.Sets) != 3 {
		t.Fatalf("sets: %d", len(tr.Sets))
	}
	ref := tr.Sets[2].Values[0].(Ref)
	if ref.Field != "seq_no" || ref.Offset != 1 {
		t.Fatalf("ref: %+v", ref)
	}
}

func TestFilterAfterReduceIsPost(t *testing.T) {
	task := NewTask("x")
	q := task.Query().Filter("tcp_flag", OpEq, 16).Reduce(AggCount).Filter("count", OpLt, 5)
	if len(q.Filters) != 1 || len(q.Post) != 1 {
		t.Fatalf("filters=%d post=%d", len(q.Filters), len(q.Post))
	}
	if q.Post[0].Op != OpLt || q.Post[0].Value != 5 {
		t.Fatalf("post: %+v", q.Post[0])
	}
}

func TestRangeCount(t *testing.T) {
	if n := (Range{Start: 80, End: 100, Step: 2}).Count(); n != 11 {
		t.Fatalf("count = %d, want 11", n)
	}
	if n := (Range{Start: 5, End: 5, Step: 1}).Count(); n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
	if n := (Range{Start: 5, End: 4, Step: 1}).Count(); n != 0 {
		t.Fatalf("count = %d, want 0", n)
	}
	if n := (Range{Start: 1, End: 10, Step: 0}).Count(); n != 0 {
		t.Fatalf("zero step count = %d, want 0", n)
	}
}

const throughputSrc = `
# Table 3: throughput testing
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set([loop, length], [0, 64])
    .set(port, 0)
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
Q2 = query().map(p -> (pkt_len)).reduce(func=sum)
`

func TestParseThroughput(t *testing.T) {
	task, err := Parse("throughput", throughputSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(task.Triggers) != 1 || len(task.Queries) != 2 {
		t.Fatalf("parsed %d triggers, %d queries", len(task.Triggers), len(task.Queries))
	}
	tr := task.Triggers[0]
	if tr.Name != "T1" || tr.Length != 64 || tr.Loop != 0 || len(tr.Ports) != 1 || tr.Ports[0] != 0 {
		t.Fatalf("trigger: %+v", tr)
	}
	// dip/sip/proto/dport/sport are header sets (the parser may group
	// them one way or another; the pairs are what matters).
	pairs := map[string]Value{}
	for _, so := range tr.Sets {
		for i, f := range so.Fields {
			pairs[f] = so.Values[i]
		}
	}
	if len(pairs) != 5 {
		t.Fatalf("sets: %+v", tr.Sets)
	}
	if pairs["proto"] != Const(17) {
		t.Fatalf("proto value: %v", pairs["proto"])
	}
	if pairs["dip"] != IP("9.9.9.9") {
		t.Fatalf("dip value: %v", pairs["dip"])
	}
	q1 := task.Queries[0]
	if q1.Sent != tr || q1.Kind != KindReduce || q1.Func != AggSum {
		t.Fatalf("q1: %+v", q1)
	}
	if len(q1.MapFields) != 1 || q1.MapFields[0] != "pkt_len" {
		t.Fatalf("map fields: %v", q1.MapFields)
	}
}

const webSrc = `
# Table 4 (abridged): web testing with stateless connections
T1 = trigger()
    .set([dip, dport, proto, flag, seq_no], [9.9.9.9, 80, tcp, SYN, 1])
    .set(sip, range(16846849, 16847104, 1))
    .set(sport, range(1024, 65535, 1))
    .set(interval, 10us)
    .set(port, 0)
Q1 = query().filter(tcp_flag == SYN+ACK)
T2 = trigger(Q1)
    .set([dip, sip, dport, sport], [Q1.sip, Q1.dip, Q1.sport, Q1.dport])
    .set([flag, seq_no, ack_no], [ACK, Q1.ack_no, Q1.seq_no + 1])
Q5 = query().filter(tcp_flag == SYN+ACK).reduce(func=sum)
`

func TestParseWebTask(t *testing.T) {
	task, err := Parse("web", webSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(task.Triggers) != 2 || len(task.Queries) != 2 {
		t.Fatalf("parsed %d triggers, %d queries", len(task.Triggers), len(task.Queries))
	}
	t1 := task.FindTrigger("T1")
	if t1.Interval != 10*time.Microsecond {
		t.Fatalf("interval = %v", t1.Interval)
	}
	// sip range parsed as Range value.
	var sipRange Range
	found := false
	for _, s := range t1.Sets {
		for i, f := range s.Fields {
			if f == "sip" {
				sipRange, found = s.Values[i].(Range), true
			}
		}
	}
	if !found || sipRange.Count() != 256 {
		t.Fatalf("sip range: %+v found=%v", sipRange, found)
	}
	// Q1 filter on SYN+ACK == 18.
	q1 := task.FindQuery("Q1")
	if len(q1.Filters) != 1 || q1.Filters[0].Value != 18 {
		t.Fatalf("q1 filter: %+v", q1.Filters)
	}
	// T2 is query-based with record references.
	t2 := task.FindTrigger("T2")
	if t2.From != q1 {
		t.Fatal("T2 not bound to Q1")
	}
	var ackRef Ref
	for _, s := range t2.Sets {
		for i, f := range s.Fields {
			if f == "ack_no" {
				ackRef = s.Values[i].(Ref)
			}
		}
	}
	if ackRef.Field != "seq_no" || ackRef.Offset != 1 {
		t.Fatalf("ack ref: %+v", ackRef)
	}
}

func TestParsePayloadAndRandom(t *testing.T) {
	src := `
T1 = trigger()
    .set(payload, "GET index.html")
    .set(sport, random('N', 32768, 1000, 16))
    .set(dport, random('E', 128, 0, 16))
`
	task, err := Parse("p", src)
	if err != nil {
		t.Fatal(err)
	}
	tr := task.Triggers[0]
	if string(tr.PayloadV) != "GET index.html" {
		t.Fatalf("payload: %q", tr.PayloadV)
	}
	r1 := tr.Sets[0].Values[0].(Random)
	if r1.Dist != DistNormal || r1.P1 != 32768 || r1.P2 != 1000 || r1.Bits != 16 {
		t.Fatalf("normal random: %+v", r1)
	}
	r2 := tr.Sets[1].Values[0].(Random)
	if r2.Dist != DistExponential {
		t.Fatalf("exp random: %+v", r2)
	}
}

func TestParseDistinct(t *testing.T) {
	src := `Q1 = query().filter(tcp_flag == SYN+ACK).distinct(keys={ipv4.sip})`
	task, err := Parse("d", src)
	if err != nil {
		t.Fatal(err)
	}
	q := task.Queries[0]
	if q.Kind != KindDistinct || len(q.Keys) != 1 || q.Keys[0] != "ipv4.sip" {
		t.Fatalf("distinct: %+v", q)
	}
}

func TestParseReduceWithKeys(t *testing.T) {
	src := `Q1 = query().reduce(keys={ipv4.dip}, func=sum)`
	task, err := Parse("r", src)
	if err != nil {
		t.Fatal(err)
	}
	q := task.Queries[0]
	if q.Func != AggSum || len(q.Keys) != 1 || q.Keys[0] != "ipv4.dip" {
		t.Fatalf("reduce: %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", "\n# nothing\n"},
		{"no equals", "trigger().set(a, 1)"},
		{"unknown primitive", "T1 = widget()"},
		{"unknown query ref", "T1 = trigger(Q9)"},
		{"unknown trigger ref", "Q1 = query(T9)"},
		{"unknown method", "T1 = trigger().explode(1)"},
		{"set arity", "T1 = trigger().set([a, b], [1])"},
		{"bad value", "T1 = trigger().set(dip, 1.2.3)"},
		{"bad filter", "Q1 = query().filter(tcp_flag)"},
		{"unbalanced", "T1 = trigger().set([a, [1)"},
		{"bad reduce", "Q1 = query().reduce(func=avg)"},
		{"bad interval", "T1 = trigger().set(interval, soon)"},
		// Format cannot print these back: a call chained without its '.'
		// (whose field list is then not names) and one chained by two.
		{"call without dot", "T1=trigger() set((0,0,0,0,0),[1,2,3,4,5])"},
		{"two dots", "T1 = trigger()..set(dip, 1.1.1.1)"},
		{"field not a name", "T1 = trigger().set([dip, 9x], [1.1.1.1, 2])"},
		{"map field not a name", "Q1 = query().map(p -> (ipv4.id, -))"},
		{"key not a name", "Q1 = query().reduce(keys={ipv4..sip}, func=sum)"},
		{"filter field not a name", "Q1 = query().filter(tcp flag == 2)"},
		{"statement name not an identifier", "0 = trigger()"},
		{"reference field not a name", "Q1 = query()\nT1 = trigger(Q1).set(dip, Q1.(x))"},
	}
	for _, c := range cases {
		if _, err := Parse(c.name, c.src); err == nil {
			t.Errorf("%s: parsed without error", c.name)
		}
	}
}

// TestFormatRoundTripsEdgeValues: a negative reference offset and a payload
// holding quotes print as text that parses back to the same program.
func TestFormatRoundTripsEdgeValues(t *testing.T) {
	src := `Q1 = query().filter(udp.dport == 7)
T1 = trigger(Q1)
    .set(seq_no, Q1.seq_no - 3)
    .set(payload, "say "hi"")
`
	task, err := Parse("edge", src)
	if err != nil {
		t.Fatal(err)
	}
	printed := Format(task)
	again, err := Parse("edge", printed)
	if err != nil {
		t.Fatalf("Format printed text Parse rejects: %v\n%s", err, printed)
	}
	if reprinted := Format(again); reprinted != printed {
		t.Fatalf("printed\n%s\nprints again as\n%s", printed, reprinted)
	}
	if got := string(again.Triggers[0].PayloadV); got != `say "hi"` {
		t.Errorf("payload %q after a round trip", got)
	}
}

func TestCountLoC(t *testing.T) {
	if n := CountLoC(throughputSrc); n != 6 {
		t.Fatalf("throughput LoC = %d, want 6", n)
	}
	if CountLoC("# only\n\n# comments\n") != 0 {
		t.Fatal("comments counted")
	}
}

func TestValueStrings(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Const(5), "5"},
		{Range{Start: 1, End: 9, Step: 2}, "range(1,9,2)"},
		{Ref{Field: "sip"}, "q.sip"},
		{Ref{Field: "seq_no", Offset: 1}, "q.seq_no+1"},
		{Payload("hi"), `"hi"`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%T String = %q, want %q", c.v, got, c.want)
		}
	}
	if (List{1, 2}).String() == "" || (Random{Dist: DistNormal}).String() == "" {
		t.Error("List/Random String empty")
	}
	if IP("1.2.3.4") != Const(0x01020304) {
		t.Error("IP helper")
	}
}

func TestParseRejectsDuplicateNames(t *testing.T) {
	if _, err := Parse("dup", `
T1 = trigger().set(dip, 9.9.9.9).set(port, 0)
T1 = trigger().set(dip, 8.8.8.8).set(port, 0)
`); err == nil {
		t.Fatal("duplicate trigger name accepted")
	}
	if _, err := Parse("dup2", `
Q1 = query().filter(tcp_flag == SYN)
Q1 = query().filter(tcp_flag == ACK)
`); err == nil {
		t.Fatal("duplicate query name accepted")
	}
}

func TestParseMultiKeyReduce(t *testing.T) {
	task, err := Parse("mk", `Q1 = query().reduce(keys={ipv4.sip, l4.sport}, func=sum)`)
	if err != nil {
		t.Fatal(err)
	}
	q := task.Queries[0]
	if len(q.Keys) != 2 || q.Keys[0] != "ipv4.sip" || q.Keys[1] != "l4.sport" {
		t.Fatalf("keys = %v", q.Keys)
	}
}

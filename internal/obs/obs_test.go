package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/netsim"
)

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	tr.Emit(1, KindParse, 7, "x", 1, 2) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Device() != "" || tr.Records() != nil {
		t.Fatal("nil trace accessors must be zero")
	}
}

func TestEmitDisabledZeroAllocs(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(42, KindTableHit, 9, "tbl", 3, 4)
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocated %v allocs/op, want 0", allocs)
	}
}

func TestTraceLimit(t *testing.T) {
	s := NewTraceSet()
	s.SetLimit(3)
	tr := s.New("dev")
	for i := 0; i < 10; i++ {
		tr.Emit(netsim.Time(i), KindParse, uint64(i), "", 0, 0)
	}
	if tr.Len() != 3 || tr.Dropped() != 7 || s.Dropped() != 7 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestMergedOrderAndStability(t *testing.T) {
	s := NewTraceSet()
	a := s.New("a")
	b := s.New("b")
	// Same timestamps across devices; multiple records per instant per
	// device to exercise stability.
	for i := 0; i < 4; i++ {
		at := netsim.Time(i / 2) // 0,0,1,1
		b.Emit(at, KindParse, uint64(100+i), "", 0, 0)
		a.Emit(at, KindParse, uint64(i), "", 0, 0)
	}
	m := s.Merged()
	if len(m) != 8 {
		t.Fatalf("merged %d records", len(m))
	}
	// Expect per-instant: all of a's records (rank 0) before b's, each in
	// emission order.
	for i := 1; i < len(m); i++ {
		p, q := m[i-1], m[i]
		if q.At < p.At {
			t.Fatalf("merge not sorted by At at %d", i)
		}
		if q.At == p.At {
			if q.Rank < p.Rank {
				t.Fatalf("merge tie not broken by rank at %d", i)
			}
			if q.Rank == p.Rank && q.UID < p.UID {
				t.Fatalf("merge not stable within stream at %d", i)
			}
		}
	}
}

// The hand-rolled stable merge sort must agree with sort.SliceStable on
// random inputs.
func TestStableSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		got := make([]MergedRecord, n)
		for i := range got {
			got[i] = MergedRecord{
				Record: Record{At: netsim.Time(rng.Intn(10)), UID: uint64(i)},
				Rank:   rng.Intn(4),
			}
		}
		want := append([]MergedRecord(nil), got...)
		sort.SliceStable(want, func(i, j int) bool { return mergedLess(&want[i], &want[j]) })
		stableSortMerged(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d: got %+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestCanonicalFormat(t *testing.T) {
	s := NewTraceSet()
	tr := s.New("sw0")
	tr.Emit(1500, KindTableHit, 42, "l2fwd", 3, 0)
	tr.Emit(2000, KindDrop, 42, "noroute", 0, 64)
	got := s.Canonical()
	want := "1500 sw0 table_hit 42 l2fwd 3 0\n2000 sw0 drop 42 noroute 0 64\n"
	if got != want {
		t.Fatalf("canonical:\n%q\nwant:\n%q", got, want)
	}
}

func TestChromeTraceExport(t *testing.T) {
	s := NewTraceSet()
	tr := s.New("sw0")
	tr.Emit(1_000_000, KindParse, 7, "", 1, 64) // 1 µs
	var b strings.Builder
	if err := s.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			PID   int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 { // process_name metadata + 1 instant
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Phase != "M" || doc.TraceEvents[1].Phase != "i" {
		t.Fatalf("phases %q %q", doc.TraceEvents[0].Phase, doc.TraceEvents[1].Phase)
	}
	if doc.TraceEvents[1].TS != 1.0 {
		t.Fatalf("ts = %v µs, want 1", doc.TraceEvents[1].TS)
	}
}

// TestRegistryOrderAndValues: the registry keeps recording order, joins
// prefix and leaf, renders numbers canonically, and snapshots numbers as
// float64 and text as string.
func TestRegistryOrderAndValues(t *testing.T) {
	r := NewRegistry()
	r.Num("sw.port0", "tx_packets", 3)
	r.Num("", "rate", 42.5)
	r.Text("trace", "sha256", "abc")
	var names, texts []string
	for _, m := range r.All() {
		names = append(names, m.Name)
		texts = append(texts, m.Text)
	}
	if fmt.Sprint(names) != "[sw.port0.tx_packets rate trace.sha256]" || fmt.Sprint(texts) != "[3 42.5 abc]" {
		t.Fatalf("names %v, texts %v", names, texts)
	}
	if m, ok := r.Get("rate"); !ok || !m.IsNum || m.Num != 42.5 {
		t.Fatalf("Get(rate) = %+v, %v", m, ok)
	}
	if m, _ := r.Get("trace.sha256"); m.IsNum {
		t.Fatalf("text metric marked numeric: %+v", m)
	}
	snap := r.Snapshot()
	if snap["sw.port0.tx_packets"].(float64) != 3 || snap["trace.sha256"].(string) != "abc" {
		t.Fatalf("snapshot %v", snap)
	}
	if _, err := json.Marshal(r.All()); err != nil {
		t.Fatalf("metrics not marshalable: %v", err)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Num("x", "y", 1)
	r.Text("x", "z", "t")
	if _, ok := r.Get("x.y"); ok || r.All() != nil || r.Snapshot() != nil {
		t.Fatal("nil registry must be inert")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r := NewRegistry()
	r.Num("a", "x", 1)
	r.Text("", "a.x", "again")
}

func TestDescribeSimAndEngine(t *testing.T) {
	r := NewRegistry()
	s := netsim.New()
	s.After(10, func() {})
	DescribeSim(r, "sim", s)
	snap := r.Snapshot()
	if snap["sim.events_pending"].(float64) != 1 {
		t.Fatalf("pending %v", snap["sim.events_pending"])
	}

	e := netsim.NewEngine(2)
	a := e.NewLP("a")
	b := e.NewLP("b")
	e.Channel(a, b, 10)
	n := 0
	a.At(5, func() { n++ })
	b.At(7, func() { n++ })
	e.RunUntil(100)
	r2 := NewRegistry()
	DescribeEngine(r2, "eng", e)
	snap2 := r2.Snapshot()
	if snap2["eng.workers"].(float64) != 2 {
		t.Fatalf("workers %v", snap2["eng.workers"])
	}
	if snap2["eng.epochs"].(float64) < 1 {
		t.Fatalf("epochs %v", snap2["eng.epochs"])
	}
	if snap2["eng.lp.a.executed"].(float64) != 1 || snap2["eng.lp.b.executed"].(float64) != 1 {
		t.Fatalf("lp executed: %v %v", snap2["eng.lp.a.executed"], snap2["eng.lp.b.executed"])
	}
}

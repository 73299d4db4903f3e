package hypertester

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/testbed"
)

// saluSequenceGolden is the hash TestSALUSequencePinned produced at commit
// ac323ab, when the counter tables still kept their labels in Go maps.
// Labels are control-plane bookkeeping: however they are stored, the data
// plane's register traffic must not move by a single access.
const saluSequenceGolden = "8c48520a489968160eef9fc165011e5466143c78dd9f7a33cc5b29066a57f3f0"

// saluTask is the pinned run's task (TestSALUSequenceUnderElision reruns it
// untraced).
const saluTask = `
T1 = trigger()
    .set([sip, proto, dport, sport], [1.1.0.1, udp, 7, 7])
    .set(dip, range(167772160, 167774207, 1))
    .set(ipv4.id, range(0, 65535, 1))
    .set(interval, 100ns)
    .set(port, 0)
Q1 = query(T1).reduce(func=count, keys={ipv4.dip})
Q2 = query().map(p -> (ipv4.id)).reduce(keys={ipv4.sip, ipv4.id}, func=max)
Q3 = query().delay(keys={ipv4.id})
`

// TestSALUSequencePinned runs a seeded task whose 64-slot counter tables
// are 16x over-subscribed, so packets take the query path's branches — exact
// hit, array hit, insert, KV push, drain onto a placed cell, relocation,
// budget eviction, digest to the CPU, delay-timestamp store and consume —
// and hashes every SALU record of the window (instant, register, cell,
// value), then each table's statistics and the sorted reports. (The KV FIFO
// never overflows here; TestCounterTableDifferential covers that branch.)
func TestSALUSequencePinned(t *testing.T) {
	ht := New(Config{Ports: []float64{100}, Seed: 7})
	ts := obs.NewTraceSet()
	ht.EnableTrace(ts.New("tester"))
	err := loadWithArraySize(ht, "salu", saluTask, 64)
	if err != nil {
		t.Fatal(err)
	}
	refl := testbed.NewReflector(ht.Sim, "refl", 100)
	testbed.Connect(ht.Sim, ht.Port(0), refl.Iface, testbed.DefaultCableDelay)
	if err := ht.Start(); err != nil {
		t.Fatal(err)
	}
	ht.RunFor(600 * netsim.Microsecond)

	h := sha256.New()
	salu := 0
	for _, r := range ts.Traces()[0].Records() {
		if r.Kind == obs.KindSALU {
			fmt.Fprintf(h, "%d %s %d %d\n", r.At, r.Label, r.Arg, r.Arg2)
			salu++
		}
	}
	reports := ht.Reports()
	var evictions uint64
	for _, st := range ht.Receiver.States() {
		fmt.Fprintf(h, "q%d %d %d %d\n", st.Plan.ID, st.Matches, st.MatchedBytes, st.DelayCount)
		if ct := st.Table; ct != nil {
			fmt.Fprintf(h, "table %d %d %d %d %d %d %d\n", ct.Updates, ct.ExactHits,
				ct.FIFOPushes, ct.FIFODrains, ct.FIFODrops, ct.Evictions, ct.Unattributed)
			evictions += ct.Evictions
		}
	}
	for _, r := range reports {
		fmt.Fprintf(h, "report %s %d %d %d %d\n", r.Query, r.Matches, r.Bytes, r.Distinct, r.DelaySamples)
		rows := make([]string, len(r.Results))
		for i, row := range r.Results {
			rows[i] = fmt.Sprint(row.Key, row.Value)
		}
		sort.Strings(rows)
		for _, row := range rows {
			fmt.Fprintln(h, row)
		}
	}
	if salu < 50000 || evictions == 0 || ht.Switch.DigestsSent == 0 {
		t.Fatalf("run too tame to pin: %d SALU records, %d evictions, %d digests",
			salu, evictions, ht.Switch.DigestsSent)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != saluSequenceGolden {
		t.Errorf("SALU sequence hash %s, want %s (%d SALU records)", got, saluSequenceGolden, salu)
	}
}

package netsim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

// TestWheelDifferentialRandom drives the wheel scheduler with randomized
// workloads — mixed horizons across every wheel level and the overflow heap,
// nested scheduling, cancels — and asserts the execution order matches the
// specification: nondecreasing timestamps, FIFO within equal timestamps.
func TestWheelDifferentialRandom(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := New()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		seq := 0
		// Horizon mix: same-bucket, cross-bucket, cross-level, overflow.
		horizon := func() Duration {
			switch rng.Intn(6) {
			case 0:
				return Duration(rng.Int63n(256)) // level 0, same bucket scale
			case 1:
				return Duration(rng.Int63n(int64(WheelLevelSpan(0))))
			case 2:
				return Duration(rng.Int63n(int64(WheelLevelSpan(1))))
			case 3:
				return Duration(rng.Int63n(int64(WheelLevelSpan(2))))
			case 4:
				return Duration(rng.Int63n(int64(WheelLevelSpan(3))))
			default:
				return WheelLevelSpan(3) + Duration(rng.Int63n(int64(3*WheelLevelSpan(3))))
			}
		}
		var pendingEvents []*Event
		var schedule func(depth int)
		schedule = func(depth int) {
			at := s.Now().Add(horizon())
			mySeq := seq
			seq++
			e := s.At(at, func() {
				got = append(got, rec{at, mySeq})
				if depth < 2 && rng.Intn(4) == 0 {
					schedule(depth + 1)
				}
			})
			pendingEvents = append(pendingEvents, e)
		}
		n := 200 + rng.Intn(300)
		for i := 0; i < n; i++ {
			schedule(0)
		}
		// Cancel a random subset before running (handles are only valid
		// until execution, so cancel up-front).
		cancelled := 0
		for _, e := range pendingEvents {
			if rng.Intn(5) == 0 {
				s.Cancel(e)
				cancelled++
			}
		}
		want := s.Pending()
		s.Run()
		if len(got) < n-cancelled {
			t.Fatalf("trial %d: executed %d events, scheduled at least %d (cancelled %d)",
				trial, len(got), n-cancelled, cancelled)
		}
		_ = want
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events still pending after Run", trial, s.Pending())
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].seq < got[j].seq
		}) {
			t.Fatalf("trial %d: execution order violates (timestamp, FIFO) order", trial)
		}
	}
}

// refEvent / refQueue form an independent reference scheduler — a plain
// binary heap ordered by (at, seq) — used to check the wheel's execution
// trace exactly, not just its ordering properties.
type refEvent struct {
	at  Time
	seq int
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// TestWheelVsReferenceRunUntil runs randomized workloads through the wheel
// and through the reference heap, chunked by RunUntil at random deadlines,
// and requires the two execution traces to be identical element-for-element.
func TestWheelVsReferenceRunUntil(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1000))
		s := New()
		var ref refQueue
		var gotTrace, refTrace []refEvent
		seq := 0
		horizon := func() Duration {
			switch rng.Intn(6) {
			case 0:
				return Duration(rng.Int63n(256))
			case 1:
				return Duration(rng.Int63n(int64(WheelLevelSpan(0))))
			case 2:
				return Duration(rng.Int63n(int64(WheelLevelSpan(1))))
			case 3:
				return Duration(rng.Int63n(int64(WheelLevelSpan(2))))
			case 4:
				return Duration(rng.Int63n(int64(WheelLevelSpan(3))))
			default:
				return Duration(rng.Int63n(3 * int64(WheelLevelSpan(3))))
			}
		}
		n := 100 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := Time(horizon())
			mySeq := seq
			seq++
			s.At(at, func() { gotTrace = append(gotTrace, refEvent{at, mySeq}) })
			heap.Push(&ref, refEvent{at, mySeq})
		}
		deadlines := make([]Time, 10)
		for i := range deadlines {
			deadlines[i] = Time(horizon())
		}
		sort.Slice(deadlines, func(i, j int) bool { return deadlines[i] < deadlines[j] })
		for _, d := range deadlines {
			s.RunUntil(d)
			for ref.Len() > 0 && ref[0].at <= d {
				refTrace = append(refTrace, heap.Pop(&ref).(refEvent))
			}
		}
		s.Run()
		for ref.Len() > 0 {
			refTrace = append(refTrace, heap.Pop(&ref).(refEvent))
		}
		if len(gotTrace) != len(refTrace) {
			t.Fatalf("trial %d: wheel ran %d events, reference %d", trial, len(gotTrace), len(refTrace))
		}
		for i := range gotTrace {
			if gotTrace[i] != refTrace[i] {
				t.Fatalf("trial %d: divergence at %d: wheel=%+v ref=%+v", trial, i, gotTrace[i], refTrace[i])
			}
		}
	}
}

// TestWheelCursorBucketCascade is the regression test for the stranded
// cursor-bucket bug: an event parked at level 1 whose bucket the base enters
// via level-0 drains must run before a younger level-0 event with a later
// timestamp. Without the cascade-before-scan step in advance, F (scheduled
// after base crossed into E's bucket) fired first and E ran late.
func TestWheelCursorBucketCascade(t *testing.T) {
	s := New()
	var trace []Time
	const eAt = Time(70_000) // level-1 bucket 1: beyond the first 65.536ns block
	s.At(eAt, func() { trace = append(trace, eAt) })
	var chain func()
	chain = func() {
		trace = append(trace, s.Now())
		if s.Now() < 66_000 {
			s.After(256, chain)
			return
		}
		// base has crossed into E's level-1 bucket; this younger, later
		// event must not overtake E.
		fAt := Time(70_100)
		s.At(fAt, func() { trace = append(trace, fAt) })
	}
	s.At(0, chain)
	s.Run()
	if !sort.SliceIsSorted(trace, func(i, j int) bool { return trace[i] < trace[j] }) {
		t.Fatalf("execution trace out of order: %v", trace)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events stranded after Run", s.Pending())
	}
}

// TestWheelPlaceAvoidsCursorBuckets is the invariant advance relies on to
// skip its cursor-bucket cascade while base stays in one level-1 bucket: place
// never files an event into the bucket of a level >= 1 that base points at.
// Randomised schedules over every level and the overflow heap, with cancels,
// check it after every place (each schedule, and each step's cascades), and
// that no such bucket is occupied whenever base is still in the level-1 bucket
// advance last checked.
func TestWheelPlaceAvoidsCursorBuckets(t *testing.T) {
	horizons := []int64{1 << 8, 1 << 16, 1 << 24, 1 << 32, 1 << 40, 1 << 42}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := New()
		check := func(what string) {
			t.Helper()
			if uint64(s.base)>>wheelShift(1) != s.cursor1 {
				return
			}
			for k := 1; k < WheelLevels; k++ {
				ck := int(uint64(s.base)>>wheelShift(k)) & wheelBucketMask
				if e := s.levels[k][ck]; e != nil {
					t.Fatalf("trial %d, %s: level %d cursor bucket %d holds an event at %v with base %v and the cursor checked",
						trial, what, k, ck, e.at, s.base)
				}
			}
		}
		var live []*Event
		var fn func(any)
		fn = func(any) {
			for n := rng.Intn(3); n > 0; n-- {
				d := Duration(rng.Int63n(horizons[rng.Intn(len(horizons))]))
				e := s.AtCall(s.Now().Add(d), fn, nil)
				if e.where == whereWheel && e.level >= 1 {
					if ck := int(uint64(s.base)>>wheelShift(int(e.level))) & wheelBucketMask; int(e.bucket) == ck {
						t.Fatalf("trial %d: an event at %v was placed in level %d's cursor bucket %d (base %v)", trial, e.at, e.level, ck, s.base)
					}
				}
				live = append(live, e)
				check("schedule")
			}
			if len(live) > 0 && rng.Intn(4) == 0 {
				s.Cancel(live[rng.Intn(len(live))])
			}
		}
		for i := 0; i < 20; i++ {
			s.AtCall(Time(rng.Int63n(1<<41)), fn, nil)
			check("seed")
		}
		for steps := 0; steps < 4000 && s.step(); steps++ {
			live = live[:0]
			check("step")
		}
	}
}

// TestWheelOverflowBlockCrossing is the overflow twin of the cursor-bucket
// regression: an overflow event whose 2^40-ps block the base enters via
// wheel activity must be promoted before younger wheel events with later
// timestamps execute.
func TestWheelOverflowBlockCrossing(t *testing.T) {
	s := New()
	var trace []Time
	topBlock := Time(1) << 40
	eAt := topBlock + 100 // beyond the first top-level block: overflow
	s.At(eAt, func() { trace = append(trace, eAt) })
	step := Duration(1) << 32
	var chain func()
	chain = func() {
		trace = append(trace, s.Now())
		if s.Now() < topBlock+Time(2*step) {
			s.After(step, chain)
		}
	}
	s.At(0, chain)
	s.Run()
	if !sort.SliceIsSorted(trace, func(i, j int) bool { return trace[i] < trace[j] }) {
		t.Fatalf("execution trace out of order around the overflow block boundary: %v", trace)
	}
	found := false
	for _, at := range trace {
		if at == eAt {
			found = true
		}
	}
	if !found || s.Pending() != 0 {
		t.Fatalf("overflow event ran=%v, pending=%d; want ran with none stranded", found, s.Pending())
	}
}

// TestWheelCancelHeavy interleaves cancellation with execution: every
// surviving callback cancels a sibling scheduled after it. The survivors
// must still run in exact (at, seq) order and the pool must stay balanced.
func TestWheelCancelHeavy(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 77))
		s := New()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		var handles []*Event
		ran := 0
		n := 500
		for i := 0; i < n; i++ {
			at := Time(rng.Int63n(3 * int64(WheelLevelSpan(1))))
			mySeq := i
			idx := i
			e := s.At(at, func() {
				ran++
				got = append(got, rec{at, mySeq})
				// Cancel a random later handle — possibly one already run
				// or cancelled, which must be a harmless no-op.
				if idx+1 < len(handles) {
					s.Cancel(handles[idx+1+rng.Intn(len(handles)-idx-1)])
				}
			})
			handles = append(handles, e)
		}
		// Cancel a third up-front too.
		for i := 0; i < n/3; i++ {
			s.Cancel(handles[rng.Intn(n)])
		}
		s.Run()
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events stranded", trial, s.Pending())
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].seq < got[j].seq
		}) {
			t.Fatalf("trial %d: cancel-heavy run broke (at, seq) order", trial)
		}
		if len(s.free) != n {
			t.Fatalf("trial %d: pool holds %d events after %d scheduled; leak or double-recycle", trial, len(s.free), n)
		}
	}
}

// TestWheelSameTimestampFIFOAcrossBuckets schedules events for one
// timestamp from very different distances — due heap, every wheel level,
// and overflow — so they are filed into different containers, then checks
// they still fire in scheduling order.
func TestWheelSameTimestampFIFOAcrossBuckets(t *testing.T) {
	s := New()
	target := Time(2)<<40 + 12345 // starts out beyond the wheel horizon
	var order []int
	// Scheduled while target is in overflow range.
	s.At(target, func() { order = append(order, 0) })
	hop := 0
	var approach func()
	approach = func() {
		// Each hop halves the remaining distance, so successive schedules
		// of the same target land at progressively lower wheel levels.
		h := hop
		s.At(target, func() { order = append(order, 1+h) })
		hop++
		remaining := target.Sub(s.Now())
		if remaining > 512 {
			s.After(remaining/2, approach)
		}
	}
	s.At(0, approach)
	s.Run()
	if len(order) < 6 {
		t.Fatalf("expected at least 6 same-timestamp events, got %d", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events fired out of scheduling order: %v", order)
		}
	}
}

// TestRunUntilOnBucketEdge pins RunUntil semantics when the deadline sits
// exactly on a level-0 block boundary: events at the deadline run, events
// one picosecond later stay queued, and the clock parks on the deadline.
func TestRunUntilOnBucketEdge(t *testing.T) {
	s := New()
	edge := Time(WheelLevelSpan(0)) // 65.536ns: bucket-255/bucket-0 boundary
	var ran []Time
	for _, at := range []Time{edge - 1, edge, edge + 1} {
		at := at
		s.At(at, func() { ran = append(ran, at) })
	}
	s.RunUntil(edge)
	if len(ran) != 2 || ran[0] != edge-1 || ran[1] != edge {
		t.Fatalf("RunUntil(edge) ran %v, want [edge-1 edge]", ran)
	}
	if s.Now() != edge {
		t.Fatalf("clock parked at %v, want %v", s.Now(), edge)
	}
	if s.Pending() != 1 {
		t.Fatalf("%d events pending, want 1 (the one past the deadline)", s.Pending())
	}
	s.Run()
	if len(ran) != 3 || ran[2] != edge+1 {
		t.Fatalf("drain after deadline ran %v", ran)
	}
}

// Package netsim provides a deterministic discrete-event simulator with a
// picosecond-resolution virtual clock. Every component in the reproduction
// (switching ASIC, links, devices under test, software packet generators)
// advances time exclusively through this scheduler, so experiments are
// reproducible bit-for-bit across runs and machines.
//
// Picosecond resolution matters: HyperTester's rate-control accuracy story
// lives at the 6.4 ns granularity of template-packet arrivals, and the
// paper reports jitters under 5 ns RMSE. An integer-nanosecond clock would
// quantize exactly the effects under study.
package netsim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in picoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Ns converts (possibly fractional) nanoseconds to a Duration, rounding to
// the nearest picosecond.
func Ns(ns float64) Duration { return Duration(math.Round(ns * 1e3)) }

// Nanoseconds returns d as floating-point nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / 1e3 }

// Seconds returns d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e12 }

func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%gns", float64(d)/1e3)
	case d < Millisecond:
		return fmt.Sprintf("%gus", float64(d)/1e6)
	case d < Second:
		return fmt.Sprintf("%gms", float64(d)/1e9)
	default:
		return fmt.Sprintf("%gs", float64(d)/1e12)
	}
}

// MaxTime is the largest representable virtual time (~106 days).
const MaxTime = Time(math.MaxInt64)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / 1e12 }

// Nanoseconds returns t as floating-point nanoseconds since start.
func (t Time) Nanoseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. Callbacks run sequentially in timestamp
// order; ties break in scheduling order, which keeps runs deterministic.
//
// Events are pooled: once an event has executed or been cancelled, the Sim
// recycles it for a future schedule. A caller may therefore retain the
// *Event returned by At/After only until the callback runs (to Cancel it);
// holding it past execution and cancelling later may cancel an unrelated,
// newer event.
type Event struct {
	at  Time
	seq uint64
	// schedAt is the virtual time the event was scheduled at (the clock of
	// the scheduling Sim for local events; the sender-side completion time
	// for cross-LP messages; the stamp an AtCallStamped caller supplied). It
	// is an ordering key only — see eventBefore.
	schedAt Time
	// parent is the schedAt of the event that was running when this one was
	// scheduled (the current time for events scheduled between runs). It is
	// not an ordering key of the wheel; Running exposes it so a component
	// that keeps hops of its own outside the wheel (asic's loop model) can
	// resolve a same-picosecond tie against the running event one level
	// deeper than (at, schedAt) — see DESIGN.md §9.6.
	parent Time
	// Exactly one of fn / fn2 is set. fn2+arg is the allocation-free form
	// used by AtCall; fn is the closure form used by At.
	fn   func()
	fn2  func(any)
	arg  any
	done bool // cancelled or executed
	// Location inside the scheduler, for O(1) Cancel: which container
	// (whereDue / whereWheel / whereOverflow), the wheel coordinates and
	// list links when bucketed, and the heap position otherwise. Buckets
	// are intrusive doubly-linked lists, so filing and unlinking events
	// never touches the heap allocator.
	where      int8
	level      uint8
	bucket     uint8
	idx        int32
	next, prev *Event
}

// Time reports when the event is due.
func (e *Event) Time() Time { return e.at }

// Sim owns the virtual clock and the pending-event timing wheel (see
// wheel.go). It is not safe for concurrent use: the simulation is
// single-threaded by design, mirroring the determinism of the hardware it
// stands in for.
type Sim struct {
	now     Time
	seq     uint64
	stopped bool
	// free is the recycled-event pool. Steady-state scheduling pops from
	// here instead of allocating, so a schedule/run/recycle loop is
	// allocation-free once the pool has warmed up.
	free []*Event
	// Executed counts events that have run, for loop-detection in tests.
	Executed uint64

	// Timing-wheel state. base is the drain frontier: every event in the
	// wheel or overflow is at >= base; everything earlier already sits in
	// the due heap, ordered by (at, seq).
	base     Time
	due      eventHeap
	overflow eventHeap
	levels   [WheelLevels][WheelBuckets]*Event
	occ      [WheelLevels][occWords]uint64
	pending  int
	// cursor1 is base's level-1 bucket number (base >> wheelShift(1)) when
	// advance last cascaded the cursor buckets of levels >= 1.
	cursor1 uint64

	// The running event's ordering stamps, valid while running is set.
	runSchedAt, runParent Time
	running               bool

	// boundary hooks run at the end of every Run/RunUntil (and of every
	// Engine.RunUntil, for an LP), after the clock reached the deadline.
	boundary []func()

	// lp binds this Sim to a logical process of a parallel Engine; nil for
	// a standalone (sequential) simulation.
	lp *lpState
	// epoch counts the engine epochs this LP has run (see Epoch).
	epoch uint64
}

// New returns an empty simulation positioned at time zero.
func New() *Sim {
	return &Sim{due: eventHeap{tag: whereDue}, overflow: eventHeap{tag: whereOverflow}}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// alloc pops a recycled event or allocates a fresh one.
func (s *Sim) alloc(at Time) *Event {
	if at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", at, s.now))
	}
	s.seq++
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.done = false
	} else {
		e = &Event{}
	}
	e.at, e.seq, e.schedAt, e.where = at, s.seq, s.now, whereNone
	e.parent = s.now
	if s.running {
		e.parent = s.runSchedAt
	}
	return e
}

// schedule files a freshly allocated event into the wheel.
func (s *Sim) schedule(e *Event) {
	s.pending++
	s.place(e)
}

// recycle returns an executed or cancelled event to the pool, dropping its
// callback references so they can be collected.
func (s *Sim) recycle(e *Event) {
	e.fn, e.fn2, e.arg = nil, nil, nil
	s.free = append(s.free, e)
}

// At schedules fn to run at absolute time at. Scheduling in the past panics:
// it is always a component bug, never a recoverable condition.
func (s *Sim) At(at Time, fn func()) *Event {
	e := s.alloc(at)
	e.fn = fn
	s.schedule(e)
	return e
}

// AtCall schedules fn(arg) at absolute time at. Unlike At, it needs no
// closure: callers pass a static function plus a (typically pooled) argument,
// so steady-state scheduling performs zero heap allocations. Passing a
// pointer as arg does not allocate.
func (s *Sim) AtCall(at Time, fn func(any), arg any) *Event {
	e := s.alloc(at)
	e.fn2, e.arg = fn, arg
	s.schedule(e)
	return e
}

// AtCallStamped is AtCall for an event standing in for one an unabridged run
// schedules at another moment than now: it files fn(arg) at absolute time at
// under the schedule time schedAt, so the event takes the slot among
// same-timestamp events that (at, schedAt) gives it. Among events that tie on
// both it runs in filing order, as every event does.
//
// schedAt <= now is an event filed late (asic's loop model handing a hop back
// to the scheduler; cross-LP messages follow the same rule): its parent stamp
// is the one AtCall gives. now < schedAt <= at is an event filed early, by a
// caller that has computed the outcome of an intermediate event — one it
// would have scheduled now, for schedAt, and which would have scheduled this
// one (asic's MAC hop, DESIGN.md §9.7): the parent stamp is now, the
// intermediate's own schedule time. A schedAt past at panics: no event runs
// before it is scheduled.
func (s *Sim) AtCallStamped(at, schedAt Time, fn func(any), arg any) *Event {
	if schedAt > at {
		panic(fmt.Sprintf("netsim: event at %v stamped as scheduled at %v, after it runs", at, schedAt))
	}
	e := s.alloc(at)
	if schedAt > s.now {
		e.schedAt, e.parent = schedAt, s.now
	} else {
		e.schedAt = schedAt
	}
	e.fn2, e.arg = fn, arg
	s.schedule(e)
	return e
}

// Running reports the ordering stamps of the event being executed: the time
// it was scheduled at and the schedule time of the event that scheduled it
// (its due time is Now). ok is false between runs, when no event is running.
func (s *Sim) Running() (schedAt, parentSchedAt Time, ok bool) {
	return s.runSchedAt, s.runParent, s.running
}

// Epoch numbers the engine epochs this Sim has run as an LP; a standalone Sim
// stays at 0. The engine routes an LP's staged messages only between its
// epochs, so until Epoch changes a message this Sim posted is still in its
// outbox, and what the message's argument points to is still the sender's to
// fill (DESIGN.md §10.6).
func (s *Sim) Epoch() uint64 { return s.epoch }

// OnBoundary registers fn to run whenever a Run/RunUntil of this Sim (or of
// the Engine it belongs to) returns, with the clock already at the deadline.
// Components that account work lazily flush here, so state read between
// runs is exact.
func (s *Sim) OnBoundary(fn func()) { s.boundary = append(s.boundary, fn) }

func (s *Sim) runBoundary() {
	for _, fn := range s.boundary {
		fn()
	}
}

// After schedules fn to run d from now. Negative d panics via At.
func (s *Sim) After(d Duration, fn func()) *Event { return s.At(s.now.Add(d), fn) }

// AfterCall schedules fn(arg) to run d from now, without closure allocation.
func (s *Sim) AfterCall(d Duration, fn func(any), arg any) *Event {
	return s.AtCall(s.now.Add(d), fn, arg)
}

// Cancel removes a pending event. Cancelling an already-run or already-
// cancelled event is a no-op.
func (s *Sim) Cancel(e *Event) {
	if e == nil || e.done || e.where == whereNone {
		return
	}
	s.unlink(e)
	s.pending--
	e.done = true
	s.recycle(e)
}

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return s.pending }

// Stop makes the currently running Run/RunUntil return after the current
// event completes. Pending events stay queued.
func (s *Sim) Stop() { s.stopped = true }

// step runs the earliest pending event. It reports false when the queue is
// empty.
func (s *Sim) step() bool {
	if s.due.len() == 0 && !s.advance() {
		return false
	}
	e := s.due.popMin()
	s.pending--
	s.now = e.at
	s.runSchedAt, s.runParent, s.running = e.schedAt, e.parent, true
	e.done = true
	s.Executed++
	if e.fn2 != nil {
		fn, arg := e.fn2, e.arg
		s.recycle(e)
		fn(arg)
	} else {
		fn := e.fn
		s.recycle(e)
		fn()
	}
	s.running = false
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Sim) Run() {
	s.standalone()
	s.stopped = false
	for !s.stopped && s.step() {
	}
	s.runBoundary()
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline remain queued.
func (s *Sim) RunUntil(deadline Time) {
	s.standalone()
	s.stopped = false
	for !s.stopped {
		if e := s.peek(); e == nil || e.at > deadline {
			break
		}
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	s.runBoundary()
}

// standalone panics for an LP: its Engine runs it. Run alone, it would pass
// messages its peers have yet to send it and keep its own unrouted.
func (s *Sim) standalone() {
	if s.lp != nil {
		panic(fmt.Sprintf("netsim: LP %s runs only through its Engine", s.lp.name))
	}
}

// RunFor is RunUntil(Now()+d).
func (s *Sim) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

package netsim

import "math/bits"

// Hierarchical timing wheel
//
// The scheduler keeps pending events in a four-level timing wheel plus a
// small overflow heap, replacing the former global binary heap. The wheel
// turns every schedule/fire pair into O(1) bucket operations for the event
// horizons that dominate the reproduction, so the simulator's per-event cost
// stays flat as experiments grow — the same property the Tofino it models
// gets from per-stage constant latency.
//
// Geometry is sized from the calibrated constants in internal/asic/timing.go
// (asserted by a pin test in that package, which imports these exported
// constants; netsim cannot import asic without a cycle):
//
//	level 0:  256 ps buckets,  span 65.536 ns — wire times and the minimum
//	          template inter-arrival (6.4 ns at 100 Gbps, §5.1) land ~25
//	          buckets ahead;
//	level 1:  65.536 ns buckets, span ~16.8 µs — the fixed pipeline latency
//	          (563.6 ns), the 570 ns recirculation RTT, replication delay
//	          (~390 ns) and Mpps-scale rate-control intervals;
//	level 2:  ~16.8 µs buckets, span ~4.29 ms — timer thresholds and quick
//	          measurement windows;
//	level 3:  ~4.29 ms buckets, span ~1.1 s — full-mode windows and digest
//	          drains.
//
// Events beyond the level-3 horizon wait in an overflow heap and are
// promoted wheel-ward one ~1.1 s block at a time.
//
// Determinism: buckets are unsorted; a bucket is drained into the due heap,
// which orders by (timestamp, schedule sequence). Ties on the timestamp
// therefore break in scheduling order — exactly the FIFO-within-timestamp
// contract the previous heap provided and the determinism tests pin.
const (
	// WheelBucketBits is log2 of the bucket count per level.
	WheelBucketBits = 8
	// WheelBuckets is the number of buckets per wheel level.
	WheelBuckets = 1 << WheelBucketBits
	// WheelLevels is the number of wheel levels below the overflow heap.
	WheelLevels = 4
	// WheelShift0 is log2 of the level-0 bucket width in picoseconds.
	WheelShift0 = 8

	wheelBucketMask = WheelBuckets - 1
	occWords        = WheelBuckets / 64
	// wheelTopShift is the horizon exponent of the whole wheel: events at
	// or beyond the current 2^wheelTopShift-ps block go to overflow.
	wheelTopShift = WheelShift0 + WheelBucketBits*WheelLevels
)

// wheelShift returns the bucket-width exponent of level k.
func wheelShift(k int) uint { return uint(WheelShift0 + WheelBucketBits*k) }

// WheelBucketWidth returns the bucket width of wheel level k.
func WheelBucketWidth(k int) Duration { return Duration(1) << wheelShift(k) }

// WheelLevelSpan returns the horizon covered by wheel level k.
func WheelLevelSpan(k int) Duration { return WheelBucketWidth(k) << WheelBucketBits }

// Event locations, for O(1) Cancel.
const (
	whereNone int8 = iota
	whereDue
	whereWheel
	whereOverflow
)

// eventHeap is a binary min-heap of events ordered by (at, seq), with the
// heap index mirrored into Event.idx so Cancel removes in O(log n). It backs
// both the due heap (the drained front of the wheel) and the overflow heap
// (events beyond the wheel horizon).
type eventHeap struct {
	tag int8 // whereDue or whereOverflow
	q   []*Event
}

// eventBefore orders events by (due time, schedule time, schedule sequence).
// For a single sequential Sim the schedule-time component is redundant —
// schedule sequence numbers already increase monotonically with the clock, so
// (at, seq) and (at, schedAt, seq) induce the same total order. It exists for
// the parallel engine (engine.go): a cross-LP message is filed into the
// destination wheel later (in wall-clock terms) than the sequential engine
// would have scheduled it, but it carries its original schedule timestamp, so
// comparing schedAt before seq slots it exactly where the sequential run
// would have — the heart of the bit-identical-merge guarantee.
func eventBefore(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	return a.seq < b.seq
}

func (h *eventHeap) len() int { return len(h.q) }

func (h *eventHeap) push(e *Event) {
	e.where = h.tag
	e.idx = int32(len(h.q))
	//htlint:ignore poolsafety heap slots are scheduler custody: popMin/remove nil the slot and step/Cancel recycle exactly once
	h.q = append(h.q, e)
	h.up(int(e.idx))
}

func (h *eventHeap) up(i int) {
	e := h.q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h.q[parent]
		if !eventBefore(e, p) {
			break
		}
		h.q[i] = p
		p.idx = int32(i)
		i = parent
	}
	h.q[i] = e
	e.idx = int32(i)
}

func (h *eventHeap) down(i int) {
	e := h.q[i]
	n := len(h.q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventBefore(h.q[r], h.q[child]) {
			child = r
		}
		c := h.q[child]
		if !eventBefore(c, e) {
			break
		}
		h.q[i] = c
		c.idx = int32(i)
		i = child
	}
	h.q[i] = e
	e.idx = int32(i)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *Event {
	e := h.q[0]
	last := len(h.q) - 1
	moved := h.q[last]
	h.q[last] = nil
	h.q = h.q[:last]
	if last > 0 {
		h.q[0] = moved
		moved.idx = 0
		h.down(0)
	}
	e.where = whereNone
	return e
}

// remove deletes the event at heap position i.
func (h *eventHeap) remove(i int) {
	e := h.q[i]
	last := len(h.q) - 1
	moved := h.q[last]
	h.q[last] = nil
	h.q = h.q[:last]
	if i < last {
		h.q[i] = moved
		moved.idx = int32(i)
		if eventBefore(moved, e) {
			h.up(i)
		} else {
			h.down(i)
		}
	}
	e.where = whereNone
}

// place files a queued event into the due heap, a wheel bucket, or the
// overflow heap, according to its distance from the wheel base. It does not
// touch the pending count — schedule/cascade/promotion share it.
func (s *Sim) place(e *Event) {
	if e.at < s.base {
		// Already inside the drained front: order by the due heap.
		s.due.push(e)
		return
	}
	// Level k holds only events inside the aligned level-(k+1) block that
	// contains base, so buckets never hold two laps: the highest bit in
	// which at and base differ picks the level.
	k := 0
	if d := bits.Len64(uint64(e.at) ^ uint64(s.base)); d > WheelShift0+WheelBucketBits {
		k = (d - WheelShift0 - 1) / WheelBucketBits
	}
	if k < WheelLevels {
		b := int(uint64(e.at)>>wheelShift(k)) & wheelBucketMask
		// Push onto the bucket's intrusive list. Bucket order is
		// irrelevant: draining goes through the due heap, which restores
		// (at, seq) order.
		head := s.levels[k][b]
		e.where, e.level, e.bucket = whereWheel, uint8(k), uint8(b)
		e.prev, e.next = nil, head
		if head != nil {
			head.prev = e
		}
		s.levels[k][b] = e
		s.occ[k][b>>6] |= 1 << uint(b&63)
		return
	}
	s.overflow.push(e)
}

// unlink removes a still-pending event from whichever container holds it.
func (s *Sim) unlink(e *Event) {
	switch e.where {
	case whereDue:
		s.due.remove(int(e.idx))
	case whereOverflow:
		s.overflow.remove(int(e.idx))
	case whereWheel:
		k, b := int(e.level), int(e.bucket)
		if e.prev != nil {
			e.prev.next = e.next
		} else {
			s.levels[k][b] = e.next
			if e.next == nil {
				s.occ[k][b>>6] &^= 1 << uint(b&63)
			}
		}
		if e.next != nil {
			e.next.prev = e.prev
		}
		e.next, e.prev = nil, nil
		e.where = whereNone
	}
}

// nextOccupied scans level k's occupancy bitmap for the first non-empty
// bucket at index >= from.
func (s *Sim) nextOccupied(k, from int) (int, bool) {
	w := from >> 6
	word := s.occ[k][w] & (^uint64(0) << uint(from&63))
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
		w++
		if w >= occWords {
			return 0, false
		}
		word = s.occ[k][w]
	}
}

// takeBucket detaches level k bucket b's event list, clearing its occupancy
// bit, and returns the head for draining or cascading.
func (s *Sim) takeBucket(k, b int) *Event {
	head := s.levels[k][b]
	s.levels[k][b] = nil
	s.occ[k][b>>6] &^= 1 << uint(b&63)
	return head
}

// advance refills the due heap from the wheel and overflow. It reports false
// when no event is pending anywhere. Advancing moves the wheel base (the
// drain frontier) but executes nothing, so it is safe to call from peeks.
func (s *Sim) advance() bool {
	for s.due.len() == 0 {
		if s.pending == 0 {
			return false
		}
		// base may have crossed a block boundary since events were filed, in
		// which case the overflow heap and the cursor buckets of higher
		// levels can hold events due before anything at level 0. Pull them
		// down first — overflow into the wheel, then each level's cursor
		// bucket top-down — so the level-0 scan below sees every candidate.
		if s.overflow.len() > 0 {
			blockEnd := Time((uint64(s.base)>>wheelTopShift + 1) << wheelTopShift)
			for s.overflow.len() > 0 && s.overflow.q[0].at < blockEnd {
				s.place(s.overflow.popMin())
			}
		}
		// place never files into a level >= 1 cursor bucket, so only a base
		// that left the level-1 bucket it was last checked in can find one
		// occupied.
		if c1 := uint64(s.base) >> wheelShift(1); c1 != s.cursor1 {
			s.cursor1 = c1
			for k := WheelLevels - 1; k >= 1; k-- {
				ck := int(uint64(s.base)>>wheelShift(k)) & wheelBucketMask
				if s.occ[k][ck>>6]&(1<<uint(ck&63)) == 0 {
					continue
				}
				for e := s.takeBucket(k, ck); e != nil; {
					n := e.next
					e.next, e.prev = nil, nil
					s.place(e)
					e = n
				}
			}
		}
		// Drain the next occupied level-0 bucket of the current block.
		c0 := int(uint64(s.base)>>WheelShift0) & wheelBucketMask
		if b, ok := s.nextOccupied(0, c0); ok {
			blockBase := uint64(s.base) &^ (1<<(WheelShift0+WheelBucketBits) - 1)
			s.base = Time(blockBase|uint64(b)<<WheelShift0) + 1<<WheelShift0
			for e := s.takeBucket(0, b); e != nil; {
				n := e.next
				e.next, e.prev = nil, nil
				s.due.push(e)
				e = n
			}
			continue
		}
		// Level 0 exhausted: cascade the next occupied higher-level bucket
		// down. Its window start becomes the new base, so the re-placed
		// events land at strictly lower levels.
		cascaded := false
		for k := 1; k < WheelLevels; k++ {
			shift := wheelShift(k)
			ck := int(uint64(s.base)>>shift) & wheelBucketMask
			b, ok := s.nextOccupied(k, ck)
			if !ok {
				continue
			}
			blockBase := uint64(s.base) &^ (1<<(shift+WheelBucketBits) - 1)
			if nb := Time(blockBase | uint64(b)<<shift); nb > s.base {
				s.base = nb
			}
			for e := s.takeBucket(k, b); e != nil; {
				n := e.next
				e.next, e.prev = nil, nil
				s.place(e)
				e = n
			}
			cascaded = true
			break
		}
		if cascaded {
			continue
		}
		// Wheel empty: promote the overflow block holding the earliest
		// far-future event.
		if s.overflow.len() == 0 {
			return false
		}
		minAt := uint64(s.overflow.q[0].at)
		if pb := Time(minAt &^ (1<<wheelTopShift - 1)); pb > s.base {
			s.base = pb
		}
		blockEnd := Time((minAt>>wheelTopShift + 1) << wheelTopShift)
		for s.overflow.len() > 0 && s.overflow.q[0].at < blockEnd {
			s.place(s.overflow.popMin())
		}
	}
	return true
}

// peek returns the earliest pending event without executing it, or nil.
func (s *Sim) peek() *Event {
	if s.due.len() == 0 && !s.advance() {
		return nil
	}
	return s.due.q[0]
}

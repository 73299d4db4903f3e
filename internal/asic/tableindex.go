package asic

import "sort"

// Indexed lookup structures
//
// The Tofino resolves every match kind in constant time per packet; the
// original reproduction paid a priority-ordered linear scan per Apply for
// ternary and range tables, plus a full re-sort on every insert. The entries
// slices stay the source of truth, kept in (priority desc, insertion order)
// — but sorted lazily, once per batch of control-plane updates, and fronted
// by lookup indexes rebuilt at the same time:
//
//   - ternary: entries are bucketed by their match value masked to the bits
//     every entry examines (the AND of all masks). A lookup key can only
//     match entries in the bucket keyed by its own masked value, so the scan
//     shrinks to one bucket, kept in global priority order. If the table
//     holds a catch-all (zero common mask) this degrades to the old full
//     scan, never worse.
//   - range: entry bounds split the key space into elementary intervals; a
//     priority sweep precomputes the winning entry for each, and Apply
//     binary-searches the interval containing the key.
//
// The linear scans survive in tableindex_test.go (lookupTernaryLinear,
// lookupRangeLinear) as the reference oracles of the differential tests.

type ternaryIndex struct {
	// commonMask is the AND of every entry's mask, per key word.
	commonMask [4]uint64
	// buckets maps a masked match value to the entries carrying it, as
	// indices into the sorted entries slice, ascending (= priority order).
	buckets map[[4]uint64][]int32
}

type rangeIndex struct {
	// points are the elementary-interval boundaries: every lo and hi+1,
	// sorted and deduplicated. Interval i spans [points[i], points[i+1]).
	points []uint64
	// winner[i] is the entries index that wins interval i, or -1.
	winner []int32
}

// ensureIndex sorts the entries and rebuilds the lookup index after
// control-plane changes. One stable sort over a batch of appends yields the
// same order as the old sort-per-insert: ties on priority keep insertion
// order either way.
func (t *Table) ensureIndex() {
	if !t.dirty {
		return
	}
	t.dirty = false
	switch t.Kind {
	case MatchTernary:
		sort.SliceStable(t.ternary, func(i, j int) bool { return t.ternary[i].priority > t.ternary[j].priority })
		t.rebuildTernaryIndex()
	case MatchRange:
		sort.SliceStable(t.ranges, func(i, j int) bool { return t.ranges[i].priority > t.ranges[j].priority })
		t.rebuildRangeIndex()
	}
}

func (t *Table) rebuildTernaryIndex() {
	idx := &t.tern
	idx.commonMask = [4]uint64{}
	if len(t.ternary) == 0 {
		idx.buckets = nil
		return
	}
	for w := range idx.commonMask {
		idx.commonMask[w] = ^uint64(0)
	}
	for i := range t.ternary {
		for w, m := range t.ternary[i].mask {
			idx.commonMask[w] &= m
		}
	}
	idx.buckets = make(map[[4]uint64][]int32, len(t.ternary))
	var bk [4]uint64
	for i := range t.ternary {
		e := &t.ternary[i]
		bk = [4]uint64{}
		for w, v := range e.value {
			bk[w] = v & e.mask[w] & idx.commonMask[w]
		}
		idx.buckets[bk] = append(idx.buckets[bk], int32(i))
	}
}

// lookupTernary returns the index of the highest-priority matching entry.
func (t *Table) lookupTernary(keys []uint64) (int, bool) {
	if t.tern.buckets == nil {
		return 0, false
	}
	var bk [4]uint64
	for w, k := range keys {
		bk[w] = k & t.tern.commonMask[w]
	}
	for _, i := range t.tern.buckets[bk] {
		e := &t.ternary[i]
		match := true
		for j := range keys {
			if keys[j]&e.mask[j] != e.value[j]&e.mask[j] {
				match = false
				break
			}
		}
		if match {
			return int(i), true
		}
	}
	return 0, false
}

func (t *Table) rebuildRangeIndex() {
	idx := &t.rng
	idx.points = idx.points[:0]
	idx.winner = idx.winner[:0]
	n := len(t.ranges)
	if n == 0 {
		return
	}
	for i := range t.ranges {
		idx.points = append(idx.points, t.ranges[i].lo)
		if hi := t.ranges[i].hi; hi != ^uint64(0) {
			idx.points = append(idx.points, hi+1)
		}
	}
	sort.Slice(idx.points, func(i, j int) bool { return idx.points[i] < idx.points[j] })
	uniq := idx.points[:1]
	for _, p := range idx.points[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	idx.points = uniq

	// Sweep the boundaries in order, keeping a lazy-deletion min-heap of the
	// active entries by slice index — entries are priority-sorted, so the
	// smallest active index is the winner of the current interval.
	starts := make([]int32, n)
	for i := range starts {
		starts[i] = int32(i)
	}
	sort.Slice(starts, func(i, j int) bool { return t.ranges[starts[i]].lo < t.ranges[starts[j]].lo })
	var heap []int32
	push := func(v int32) {
		heap = append(heap, v)
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 2
			if heap[p] <= heap[c] {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			c = p
		}
	}
	pop := func() {
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for p := 0; ; {
			c := 2*p + 1
			if c >= last {
				break
			}
			if r := c + 1; r < last && heap[r] < heap[c] {
				c = r
			}
			if heap[p] <= heap[c] {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			p = c
		}
	}
	next := 0
	for _, p := range idx.points {
		for next < n && t.ranges[starts[next]].lo == p {
			push(starts[next])
			next++
		}
		// Expired entries surface lazily: only the top needs checking.
		for len(heap) > 0 && t.ranges[heap[0]].hi < p {
			pop()
		}
		if len(heap) > 0 {
			idx.winner = append(idx.winner, heap[0])
		} else {
			idx.winner = append(idx.winner, -1)
		}
	}
}

// lookupRange returns the index of the highest-priority entry covering key.
func (t *Table) lookupRange(key uint64) (int, bool) {
	points := t.rng.points
	// Binary search for the elementary interval containing key: the last
	// point <= key. Hand-rolled to keep Apply free of closures.
	lo, hi := 0, len(points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if points[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo - 1
	if i < 0 || i >= len(t.rng.winner) {
		return 0, false
	}
	if w := t.rng.winner[i]; w >= 0 {
		return int(w), true
	}
	return 0, false
}

package htpr

import (
	"slices"
	"sort"

	"github.com/hypertester/hypertester/internal/core/compiler"
)

// CPU-side query post-processing. Sonata's operator set includes join on
// top of filter/map/reduce/distinct; HyperTester partitions such operators
// to the switch CPU (§5.2: "HyperTester runs all the CPU logic within
// switch CPU"). These helpers implement that CPU stage over collected
// reports.

// JoinedResult pairs the aggregates of two queries for one key.
type JoinedResult struct {
	Key   []uint64
	Left  uint64
	Right uint64
}

// indexResults indexes a result set by key tuple for the joins: a key's row
// in keys indexes its value. A key met twice keeps its last value.
func indexResults(results []Result) (keys *compiler.TupleMatrix, vals []uint64) {
	width := 0
	if len(results) > 0 {
		width = len(results[0].Key)
	}
	keys = compiler.NewTupleMatrix(width, len(results))
	for _, r := range results {
		if len(r.Key) != width {
			continue // no row of this set's query; it can match nothing
		}
		if row, added := keys.Probe(r.Key); added {
			vals = append(vals, r.Value)
		} else {
			vals[row] = r.Value
		}
	}
	return keys, vals
}

// Join inner-joins two result sets on their full key tuples. Keys present
// in only one side are dropped (use LeftJoin to keep them).
func Join(left, right []Result) []JoinedResult {
	keys, vals := indexResults(right)
	var out []JoinedResult
	for _, l := range left {
		if row := keys.Find(l.Key); row >= 0 {
			out = append(out, JoinedResult{Key: l.Key, Left: l.Value, Right: vals[row]})
		}
	}
	return out
}

// LeftJoin keeps every left key; missing right values are zero.
func LeftJoin(left, right []Result) []JoinedResult {
	keys, vals := indexResults(right)
	out := make([]JoinedResult, 0, len(left))
	for _, l := range left {
		j := JoinedResult{Key: l.Key, Left: l.Value}
		if row := keys.Find(l.Key); row >= 0 {
			j.Right = vals[row]
		}
		out = append(out, j)
	}
	return out
}

// TopK returns the k largest results by value (ties broken by key order for
// determinism). The input is not modified.
func TopK(results []Result, k int) []Result {
	sorted := make([]Result, len(results))
	copy(sorted, results)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Value != sorted[j].Value {
			return sorted[i].Value > sorted[j].Value
		}
		return slices.Compare(sorted[i].Key, sorted[j].Key) < 0
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// SumValues totals a result set (the scalar a keyless reduce reports).
func SumValues(results []Result) uint64 {
	var total uint64
	for _, r := range results {
		total += r.Value
	}
	return total
}

package htpr

import (
	"testing"
	"testing/quick"
)

func rs(pairs ...[2]uint64) []Result {
	out := make([]Result, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, Result{Key: []uint64{p[0]}, Value: p[1]})
	}
	return out
}

func TestJoinInner(t *testing.T) {
	left := rs([2]uint64{1, 10}, [2]uint64{2, 20}, [2]uint64{3, 30})
	right := rs([2]uint64{2, 200}, [2]uint64{3, 300}, [2]uint64{4, 400})
	j := Join(left, right)
	if len(j) != 2 {
		t.Fatalf("joined %d keys, want 2", len(j))
	}
	for _, r := range j {
		if r.Right != r.Left*10 {
			t.Fatalf("join row mismatch: %+v", r)
		}
	}
}

func TestJoinMultiFieldKeys(t *testing.T) {
	left := []Result{{Key: []uint64{1, 2}, Value: 5}}
	right := []Result{{Key: []uint64{1, 2}, Value: 7}, {Key: []uint64{2, 1}, Value: 9}}
	j := Join(left, right)
	if len(j) != 1 || j[0].Right != 7 {
		t.Fatalf("multi-field join: %+v (swapped key must not match)", j)
	}
}

func TestTopK(t *testing.T) {
	in := rs([2]uint64{1, 5}, [2]uint64{2, 50}, [2]uint64{3, 20}, [2]uint64{4, 50})
	top := TopK(in, 3)
	if len(top) != 3 {
		t.Fatalf("topk size %d", len(top))
	}
	if top[0].Value != 50 || top[1].Value != 50 || top[2].Value != 20 {
		t.Fatalf("topk order: %+v", top)
	}
	// Deterministic tie-break: key 2 before key 4.
	if top[0].Key[0] != 2 || top[1].Key[0] != 4 {
		t.Fatalf("tie break: %+v", top)
	}
	// Input untouched, oversized k clamped.
	if in[0].Value != 5 {
		t.Fatal("TopK mutated input")
	}
	if got := TopK(in, 99); len(got) != 4 {
		t.Fatalf("clamped topk: %d", len(got))
	}
}

// Property: Join is symmetric in membership — a key appears in the join
// exactly when it appears on both sides.
func TestJoinMembershipProperty(t *testing.T) {
	f := func(lks, rks []uint8) bool {
		seenL := map[uint8]bool{}
		var left, right []Result
		for _, k := range lks {
			if !seenL[k] {
				seenL[k] = true
				left = append(left, Result{Key: []uint64{uint64(k)}, Value: 1})
			}
		}
		seenR := map[uint8]bool{}
		for _, k := range rks {
			if !seenR[k] {
				seenR[k] = true
				right = append(right, Result{Key: []uint64{uint64(k)}, Value: 1})
			}
		}
		j := Join(left, right)
		both := 0
		for k := range seenL {
			if seenR[k] {
				both++
			}
		}
		return len(j) == both
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

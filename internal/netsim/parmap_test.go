package netsim

import "testing"

// TestParMap pins the pool's contract: every index runs exactly once at any
// worker count, including the inline path.
func TestParMap(t *testing.T) {
	for _, w := range []int{0, 1, 3, 16} {
		hits := make([]int, 37)
		ParMap(w, len(hits), func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, h)
			}
		}
	}
	ParMap(4, 0, func(int) { t.Fatal("n=0 must not call fn") })
}

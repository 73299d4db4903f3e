package netsim

import (
	"sync"
	"sync/atomic"
)

// ParMap runs fn(0..n-1) across up to workers goroutines (inline, on the
// calling goroutine, when the budget or n is 1). It is the one ordered
// worker pool above the engine: the experiments' point sweeps and
// scenario.RunSuite fan out through it. Ordering comes from
// slot ownership, not scheduling: each index must write only its own slot of
// any shared output slice, so results land in input order however the
// workers interleave. A panic in fn is not contained here — callers that
// promise "fails alone" recover inside fn, where the slot to report into is
// known.
func ParMap(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

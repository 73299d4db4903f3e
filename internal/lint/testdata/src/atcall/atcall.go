// Package atcall is the analyzer fixture: a miniature netsim.Sim with the
// zero-allocation scheduling APIs, plus the capturing spellings that
// defeat them.
package atcall

// Time and Duration mirror netsim's virtual-clock types.
type Time int64
type Duration int64

// Sim mirrors netsim.Sim's scheduling surface.
type Sim struct{}

// AtCall schedules fn(arg) without closure allocation.
func (s *Sim) AtCall(at Time, fn func(any), arg any) {}

// AfterCall schedules fn(arg) relative to now.
func (s *Sim) AfterCall(d Duration, fn func(any), arg any) {}

// AtCallStamped is AtCall under an explicit schedule stamp: the callback is
// its third argument.
func (s *Sim) AtCallStamped(at, schedAt Time, fn func(any), arg any) {}

// At is the closure-friendly API; literals are fine here.
func (s *Sim) At(at Time, fn func()) {}

// runHop is the blessed trampoline shape.
func runHop(a any) {}

func good(s *Sim) {
	s.AtCall(0, runHop, nil)
	s.AfterCall(0, runHop, nil)
	s.AtCallStamped(0, 0, runHop, nil)
	s.At(0, func() {}) // At is allowed to take literals
}

func badLiteral(s *Sim, x int) {
	s.AtCall(0, func(any) { x++ }, nil) // want `function literal.*allocates a closure`
}

func badLiteralAfter(s *Sim) {
	s.AfterCall(0, func(any) {}, nil) // want `function literal.*allocates a closure`
}

func badLiteralStamped(s *Sim) {
	s.AtCallStamped(0, 0, func(any) {}, nil) // want `function literal.*allocates a closure`
}

type worker struct{ n int }

func (w *worker) step(any) { w.n++ }

func badMethodValue(s *Sim, w *worker) {
	s.AfterCall(0, w.step, nil) // want `method value.*allocates per call`
}

func badMethodValueStamped(s *Sim, w *worker) {
	s.AtCallStamped(0, 0, w.step, nil) // want `method value.*allocates per call`
}

// Package deadexport is the dead-export guard's fixture: Dead is the one
// finding; every other export is used, exempt or annotated.
package deadexport

import "io"

// Dead is exported and nothing uses it.
func Dead() int { return Dead() + 1 }

// Used is exported and called by Writer.Write.
func Used() int { return 1 }

// Writer implements io.Writer, so its Write method is exempt.
type Writer struct{ n int }

// Write counts bytes.
func (w *Writer) Write(p []byte) (int, error) {
	w.n += len(p) + Used()
	return len(p), nil
}

// String is exempt by name.
func (w *Writer) String() string { return "writer" }

// Tap is read only by a differential test.
//
//htlint:ignore deadexport the oracle reads it
func (w *Writer) Tap() int { return w.n }

var _ io.Writer = (*Writer)(nil)

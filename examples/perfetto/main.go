// Perfetto trace: the per-packet lifecycle trace of the observability
// sample workload — a line-rate multicast template plus a rate-controlled,
// header-sweeping one across three 100G ports — written as Chrome
// trace-event JSON. Load it in https://ui.perfetto.dev (or chrome://tracing):
// one process per device stream, one lane per packet lifecycle.
//
// Run with:
//
//	go run ./examples/perfetto [out.json]
//
// Without an argument the trace goes to a new file in the temp directory.
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/hypertester/hypertester/internal/experiments"
)

func main() {
	ts, _, err := experiments.TraceSample(experiments.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	var f *os.File
	if len(os.Args) > 1 {
		f, err = os.Create(os.Args[1])
	} else {
		f, err = os.CreateTemp("", "hypertester-trace-*.json")
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := ts.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d records across %d streams)\n", f.Name(), ts.Len(), len(ts.Traces()))
}

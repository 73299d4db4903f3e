package asic

// Processor is one step of a match-action pipeline: a table apply or a
// register operation. Processors run in order, mirroring the
// sequential physical stages of RMT.
type Processor interface {
	Process(p *PHV)
}

// ProcessorFunc adapts a function to the Processor interface.
type ProcessorFunc func(p *PHV)

// Process implements Processor.
func (f ProcessorFunc) Process(p *PHV) { f(p) }

// Pipeline is an ordered list of processors (an ingress or egress pipeline).
type Pipeline struct {
	Name  string
	procs []Processor

	// Packets counts PHVs processed, for tests and statistics.
	Packets uint64
}

// NewPipeline returns an empty pipeline.
func NewPipeline(name string) *Pipeline { return &Pipeline{Name: name} }

// Add appends processors to the pipeline.
func (pl *Pipeline) Add(ps ...Processor) { pl.procs = append(pl.procs, ps...) }

// Clear removes all processors (used when reprogramming the switch).
func (pl *Pipeline) Clear() { pl.procs = nil }

// Run processes one PHV through every stage. A Drop set mid-pipeline stops
// further stages, as the deflect-on-drop path would.
func (pl *Pipeline) Run(p *PHV) {
	pl.Packets++
	for _, pr := range pl.procs {
		pr.Process(p)
		if p.Drop {
			return
		}
	}
}

package verify

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/hypertester/hypertester/internal/p4ir"
)

// Severity grades a diagnostic. Errors are safety violations the compiler
// must refuse to deploy; warnings are reachability facts (dead or shadowed
// configuration) worth surfacing but not fatal.
type Severity string

// Severities.
const (
	SevError   Severity = "error"
	SevWarning Severity = "warning"
)

// Check names, one per analysis the walker performs.
const (
	CheckParser        = "parser-cycle"
	CheckInvalidAccess = "invalid-header-access"
	CheckSALU          = "salu-conflict"
	CheckRecirc        = "recirc-unbounded"
	CheckUnreachable   = "unreachable-table"
	CheckDeadEntry     = "dead-entry"
	CheckShadowed      = "shadowed-entry"
	CheckGateway       = "infeasible-gateway"
)

// Diagnostic is one finding, anchored to the program element it concerns.
type Diagnostic struct {
	Check    string
	Severity Severity
	Site     string // table, action, or gateway condition
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]: %s", d.Severity, d.Site, d.Check, d.Message)
}

// Implication is an environment invariant: whenever the If atom holds
// (restricted to equality — the only shape the compiler emits), the Then
// atoms hold too. The compiler derives these from its template packets:
// meta.template_id == N implies the packet carries template N's headers and
// select-field values. A Then atom over a header the current parse path did
// not extract makes the path infeasible.
type Implication struct {
	If   p4ir.Atom
	Then []p4ir.Atom
}

// Options tunes an Analyze run.
type Options struct {
	Invariants   []Implication
	MaxPaths     int  // feasible leaf paths to enumerate (default 8192)
	Witnesses    bool // concretize a witness per feasible leaf path
	MaxWitnesses int  // cap on distinct witnesses kept (default 256)
}

// Witness is a concrete input that drives the program down one feasible
// leaf path: which headers the packet carries and the value of every field
// the path constrained or read.
type Witness struct {
	Program string            `json:"program"`
	Path    []string          `json:"path"`
	Headers []string          `json:"headers"`
	Fields  map[string]uint64 `json:"fields"`
}

// Report is the result of one Analyze run.
type Report struct {
	Diagnostics []Diagnostic
	Witnesses   []Witness
	Paths       int  // feasible leaf paths enumerated
	Truncated   bool // MaxPaths or MaxWitnesses hit
}

// Errors returns the error-severity diagnostics.
func (r *Report) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// fieldWidths mirrors the PHV field widths of internal/asic plus the
// compiler's metadata fields. verify deliberately avoids importing asic so
// the symbolic walker and the naive interpreter form an oracle independent
// of the ASIC model they are checking.
var fieldWidths = map[string]int{
	"eth.src": 48, "eth.dst": 48, "eth.type": 16,
	"vlan.id": 12, "vlan.pcp": 3,
	"ipv4.sip": 32, "ipv4.dip": 32, "ipv4.ttl": 8, "ipv4.proto": 8,
	"ipv4.tos": 8, "ipv4.id": 16,
	"tcp.sport": 16, "tcp.dport": 16, "tcp.seq_no": 32, "tcp.ack_no": 32,
	"tcp.flag": 8, "tcp.window": 16,
	"udp.sport": 16, "udp.dport": 16,
	"l4.sport": 16, "l4.dport": 16,
	"icmp.type": 8, "icmp.ident": 16, "icmp.seq": 16,
	"meta.in_port": 9, "pkt_len": 16, "meta.ingress_ts": 64,
	"meta.template_id": 16,
	"meta.one":         1, "meta.trigger_push": 1,
	"eg_intr_md.rid": 16, "ig_intr_md.mcast_grp": 16,
	"pkt_id": 32, "meta.rand": 16, "meta.rand_bucket": 16,
	"meta.idx1": 16, "meta.idx2": 16, "meta.digest": 32,
	"meta.delay_idx": 16, "recirc_port": 9,
}

func fieldWidth(name string, hint int) int {
	if w, ok := fieldWidths[name]; ok {
		return w
	}
	if hint > 0 && hint <= 64 {
		return hint
	}
	return 32
}

// headerOf maps a field name to the parser header that must be valid to
// touch it; "" means metadata, always valid. "l4" is the resolver's
// leftover when neither transport header was parsed.
func headerOf(name string) string {
	i := strings.IndexByte(name, '.')
	if i < 0 {
		return ""
	}
	switch name[:i] {
	case "eth":
		return "ethernet"
	case "vlan", "ipv4", "tcp", "udp", "icmp", "l4":
		return name[:i]
	}
	return ""
}

// selectEdge returns the parser select convention for a transition: the
// field examined in the From state and the value routing to To. ok=false
// means the edge's select is unknown and the walker forks unconstrained.
func selectEdge(from, to string) (field string, val uint64, ok bool) {
	switch from {
	case "ethernet":
		switch to {
		case "ipv4":
			return "eth.type", 0x0800, true
		case "vlan":
			return "eth.type", 0x8100, true
		}
	case "ipv4":
		switch to {
		case "tcp":
			return "ipv4.proto", 6, true
		case "udp":
			return "ipv4.proto", 17, true
		case "icmp":
			return "ipv4.proto", 1, true
		}
	}
	return "", 0, false
}

// state is one symbolic path: current field values, the input constraints
// that led here, header validity, per-pass SALU ownership and the loop
// facts recirculation is judged by. Field names and headers are interned
// once per Analyze (walker.fieldID, walker.headerID), so fields and input
// are slices indexed by field id, nil where the path has not touched the
// field. They share *Value pointers copy-on-write: a gateway constraint
// refines both while shared; an action write replaces only the current
// value. A clone copies those two short slices and shares the rest: the
// trail is an immutable parent-linked list, and valid, applied and salu are
// copied by whoever changes them.
type state struct {
	fields  []*Value
	input   []*Value
	valid   bitset      // header ids
	applied bitset      // invariant indices already applied
	salu    []saluOwner // this pipeline pass
	trail   *step       // the latest step; nil before the first
	recOK   bool        // a strict-increase RMW ran earlier on this path
	guards  int         // enclosing gateways whose condition is not `true`
}

// saluOwner records which table touched a register on this pipeline pass.
type saluOwner struct{ register, table string }

// resize gives s fresh fields and input slices of length n, one backing
// array, holding s's current entries.
func (s *state) resize(n int) {
	buf := make([]*Value, 2*n)
	copy(buf, s.fields)
	copy(buf[n:], s.input)
	s.fields, s.input = buf[:n:n], buf[n:]
}

func (s *state) clone() *state {
	c := *s
	c.resize(len(s.fields))
	return &c
}

// bitset is a set of small integers. States share bitsets, so with copies.
type bitset []uint64

func (b bitset) has(i int) bool { return i/64 < len(b) && b[i/64]&(1<<uint(i%64)) != 0 }

// with returns b plus i, leaving b's array alone.
func (b bitset) with(i int) bitset {
	c := make(bitset, max(len(b), i/64+1))
	copy(c, b)
	c[i/64] |= 1 << uint(i%64)
	return c
}

// step is one entry of a path's trail, formatted only when a diagnostic or
// a witness shows it. Trails share their prefixes: each step links to the
// one before it, so forking a path copies no trail.
type step struct {
	prev *step
	kind stepKind
	name string     // parse node, table, or an opaque gateway's condition
	act  string     // action of a hit or entry step
	i    int        // entry index, or the atom an else step negates
	cond *p4ir.Cond // gateway condition of if and else steps
}

type stepKind uint8

const (
	stepParse stepKind = iota
	stepAccept
	stepIfOpaque
	stepElseOpaque
	stepIf
	stepIfNot
	stepHit
	stepMiss
	stepEntry
)

func (s *step) String() string {
	switch s.kind {
	case stepParse:
		return "parse " + s.name
	case stepAccept:
		return "accept"
	case stepIfOpaque:
		return "if? " + s.name
	case stepElseOpaque:
		return "else? " + s.name
	case stepIf:
		return "if " + s.cond.String()
	case stepIfNot:
		return "if not(" + s.cond.Atoms[s.i].String() + ")"
	case stepHit:
		return s.name + ":" + s.act
	case stepMiss:
		return s.name + ":miss"
	}
	return fmt.Sprintf("%s:entry%d:%s", s.name, s.i, s.act)
}

// push appends a step to the path's trail.
func (s *state) push(st step) {
	st.prev = s.trail
	s.trail = &st
}

// lastSteps formats the last n steps of a trail, oldest first: nil for an
// empty trail, every step for n < 0.
func lastSteps(trail *step, n int) []string {
	var out []string
	for p := trail; p != nil && len(out) != n; p = p.prev {
		out = append(out, p.String())
	}
	slices.Reverse(out)
	return out
}

// fieldID interns a field name.
func (w *walker) fieldID(name string) int {
	id, ok := w.fieldIDs[name]
	if !ok {
		id = len(w.fieldNames)
		w.fieldIDs[name] = id
		w.fieldNames = append(w.fieldNames, name)
	}
	return id
}

// headerID interns a header name.
func (w *walker) headerID(hdr string) int {
	id, ok := w.headerIDs[hdr]
	if !ok {
		id = len(w.headerIDs)
		w.headerIDs[hdr] = id
	}
	return id
}

// isValid reports whether the path extracted hdr.
func (w *walker) isValid(st *state, hdr string) bool {
	id, ok := w.headerIDs[hdr]
	return ok && st.valid.has(id)
}

// slot returns field id's index in st, growing st's slices to every field
// interned so far when the path has not seen id yet.
func (w *walker) slot(st *state, name string) int {
	id := w.fieldID(name)
	if id >= len(st.fields) {
		st.resize(len(w.fieldNames))
	}
	return id
}

// get returns the field's current value, creating an unconstrained input
// on first touch (shared between fields and input — see state).
func (w *walker) get(st *state, name string, width int) *Value {
	id := w.slot(st, name)
	if v := st.fields[id]; v != nil {
		return v
	}
	v := Top(fieldWidth(name, width))
	st.fields[id] = v
	st.input[id] = v
	return v
}

// refine replaces the field with a constrained clone; the input constraint
// follows only while still shared (i.e. the field was never overwritten).
// It returns the refined value, or nil when the constraint is infeasible.
func (w *walker) refine(st *state, name string, width int, fn func(*Value) bool) *Value {
	old := w.get(st, name, width)
	nv := old.Clone()
	if !fn(nv) {
		return nil
	}
	id := w.fieldIDs[name]
	st.fields[id] = nv
	if st.input[id] == old {
		st.input[id] = nv
	}
	return nv
}

// write performs a strong update of the current value, leaving the input
// constraint behind.
func (w *walker) write(st *state, name string, v *Value) {
	id := w.slot(st, name)
	st.fields[id] = v
}

// gwSite accumulates per-gateway feasibility counts across all paths.
type gwSite struct {
	pipe    p4ir.PipelineKind
	cond    p4ir.Cond // the parsed condition
	condOK  bool      // false: outside the generator grammar
	visited int
	thenOK  int
	elseOK  int
	opaque  bool
}

// tblSite accumulates per-table and per-entry feasibility counts.
type tblSite struct {
	visits  int
	entries []int
}

type walker struct {
	p    *p4ir.Program
	opts Options

	tables  map[string]*p4ir.TableDef
	actions map[string]*p4ir.ActionDef

	gw  map[*p4ir.ControlStmt]*gwSite
	tbl map[string]*tblSite

	diags       []Diagnostic
	diagSeen    map[string]bool
	witnesses   []Witness
	witnessSeen map[string]bool
	paths       int
	truncated   bool

	pipe p4ir.PipelineKind // pipeline currently being walked

	fieldIDs   map[string]int
	fieldNames []string // by field id
	headerIDs  map[string]int
}

// Analyze symbolically executes the program and returns every finding plus
// (optionally) one concrete witness per feasible leaf path.
func Analyze(p *p4ir.Program, opts Options) *Report {
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = 8192
	}
	if opts.MaxWitnesses <= 0 {
		opts.MaxWitnesses = 256
	}
	w := &walker{
		p: p, opts: opts,
		tables:      map[string]*p4ir.TableDef{},
		actions:     map[string]*p4ir.ActionDef{},
		gw:          map[*p4ir.ControlStmt]*gwSite{},
		tbl:         map[string]*tblSite{},
		diagSeen:    map[string]bool{},
		witnessSeen: map[string]bool{},
		fieldIDs:    map[string]int{},
		headerIDs:   map[string]int{},
	}
	for _, t := range p.Tables {
		w.tables[t.Name] = t
		w.tbl[t.Name] = &tblSite{entries: make([]int, len(t.Entries))}
	}
	for _, a := range p.Actions {
		w.actions[a.Name] = a
	}

	if cyc := parserCycle(p); cyc != "" {
		w.diag(CheckParser, SevError, "parser",
			"parse graph has a cycle through %s; a TCAM parser never terminates on it", cyc)
	} else {
		w.enumParsePaths()
	}
	w.staticShadow()
	w.reachability()

	rep := &Report{
		Diagnostics: w.diags,
		Witnesses:   w.witnesses,
		Paths:       w.paths,
		Truncated:   w.truncated,
	}
	sort.SliceStable(rep.Diagnostics, func(i, j int) bool {
		return rep.Diagnostics[i].Severity == SevError && rep.Diagnostics[j].Severity != SevError
	})
	return rep
}

func (w *walker) diag(check string, sev Severity, site, format string, args ...interface{}) {
	d := Diagnostic{Check: check, Severity: sev, Site: site, Message: fmt.Sprintf(format, args...)}
	key := d.Check + "|" + d.Site + "|" + d.Message
	if w.diagSeen[key] {
		return
	}
	w.diagSeen[key] = true
	w.diags = append(w.diags, d)
}

// parserCycle returns a node on a parse-graph cycle, or "".
func parserCycle(p *p4ir.Program) string {
	adj := map[string][]string{}
	for _, e := range p.ParserGraph() {
		adj[e.From] = append(adj[e.From], e.To)
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(n string) string
	visit = func(n string) string {
		color[n] = grey
		for _, m := range adj[n] {
			switch color[m] {
			case grey:
				return m
			case white:
				if c := visit(m); c != "" {
					return c
				}
			}
		}
		color[n] = black
		return ""
	}
	for n := range adj {
		if color[n] == white {
			if c := visit(n); c != "" {
				return c
			}
		}
	}
	return ""
}

// enumParsePaths forks one symbolic state per path through the parse graph,
// including "stop here" prefixes, then runs the control pipelines on each.
func (w *walker) enumParsePaths() {
	adj := map[string][]string{}
	for _, e := range w.p.ParserGraph() {
		adj[e.From] = append(adj[e.From], e.To)
	}
	st := &state{}
	// Inputs with fixed or bounded initial values.
	input := func(name string, v *Value) {
		id := w.slot(st, name)
		st.fields[id], st.input[id] = v, v
	}
	input("meta.one", Const(1, 1))
	w.write(st, "meta.trigger_push", Const(1, 0))
	input("pkt_len", &Value{W: 16, Lo: 64, Hi: 1500})

	start := "ethernet"
	if len(w.p.Headers) > 0 {
		start = w.p.Headers[0]
	}
	if len(w.p.Headers) == 0 && len(w.p.Parser) == 0 {
		w.runControls(st)
		return
	}
	w.parseFrom(st, start, adj)
}

func (w *walker) parseFrom(st *state, node string, adj map[string][]string) {
	if w.truncated {
		return
	}
	st.valid = st.valid.with(w.headerID(node))
	st.push(step{kind: stepParse, name: node})
	succs := adj[node]
	if len(succs) == 0 {
		w.runControls(st)
		return
	}
	// Stop-here fork: the select field matched none of the known edges.
	stop := st.clone()
	feasible := true
	for _, to := range succs {
		f, v, ok := selectEdge(node, to)
		if !ok {
			continue
		}
		if !w.constrainField(stop, f, 0, p4ir.CmpNe, v) {
			feasible = false
			break
		}
	}
	if feasible {
		stop.push(step{kind: stepAccept})
		w.runControls(stop)
	}
	for _, to := range succs {
		br := st.clone()
		if f, v, ok := selectEdge(node, to); ok {
			if !w.constrainField(br, f, 0, p4ir.CmpEq, v) {
				continue
			}
		}
		w.parseFrom(br, to, adj)
	}
}

func (w *walker) runControls(st *state) {
	if w.over() {
		return
	}
	w.pipe = p4ir.PipeIngress
	w.seq(st, w.p.Ingress, func(st2 *state) {
		// Egress is a fresh pipeline pass: SALU once-per-pass resets.
		st2.salu = nil
		w.pipe = p4ir.PipeEgress
		w.seq(st2, w.p.Egress, func(st3 *state) { w.leaf(st3) })
		w.pipe = p4ir.PipeIngress
	})
}

func (w *walker) over() bool {
	if w.paths >= w.opts.MaxPaths {
		w.truncated = true
		return true
	}
	return false
}

// seq walks stmts in order, calling k on every feasible completion.
func (w *walker) seq(st *state, stmts []p4ir.ControlStmt, k func(*state)) {
	if w.over() {
		return
	}
	if len(stmts) == 0 {
		k(st)
		return
	}
	s := &stmts[0]
	rest := stmts[1:]
	// A gateway's branches rejoin here, back at this list's own depth.
	depth := st.guards
	kk := func(st2 *state) {
		st2.guards = depth
		w.seq(st2, rest, k)
	}
	if s.Apply != "" {
		w.applyTable(st, s.Apply, kk)
		return
	}
	w.gateway(st, s, kk)
}

func (w *walker) gwSite(s *p4ir.ControlStmt) *gwSite {
	g, ok := w.gw[s]
	if !ok {
		g = &gwSite{pipe: w.pipe}
		g.cond, g.condOK = p4ir.ParseCond(s.If)
		w.gw[s] = g
	}
	return g
}

func (w *walker) gateway(st *state, s *p4ir.ControlStmt, k func(*state)) {
	site := w.gwSite(s)
	site.visited++
	cond, ok := &site.cond, site.condOK

	// The branches run behind this gateway — unless its condition is the
	// literal `true`, which guards nothing.
	inner := st.guards
	if !ok || len(cond.Atoms) > 0 {
		inner++
	}
	branch := func() *state {
		c := st.clone()
		c.guards = inner
		return c
	}

	if !ok {
		// Opaque condition (outside the generator grammar): both branches
		// stay feasible and unconstrained.
		site.opaque = true
		thenSt := branch()
		thenSt.push(step{kind: stepIfOpaque, name: s.If})
		w.seq(thenSt, s.Then, k)
		if w.over() {
			return
		}
		elseSt := branch()
		elseSt.push(step{kind: stepElseOpaque, name: s.If})
		w.seq(elseSt, s.Else, k)
		return
	}

	thenSt := branch()
	feasible := true
	for _, a := range cond.Atoms {
		if !w.constrainAtom(thenSt, a) {
			feasible = false
			break
		}
	}
	if feasible {
		site.thenOK++
		thenSt.push(step{kind: stepIf, cond: cond})
		w.seq(thenSt, s.Then, k)
	}

	// Else is the DNF of the negated conjunction: one fork per atom,
	// with all earlier atoms held true (disjoint cover, no double count).
	for i, a := range cond.Atoms {
		if w.over() {
			return
		}
		elseSt := branch()
		ok := true
		for j := 0; j < i && ok; j++ {
			ok = w.constrainAtom(elseSt, cond.Atoms[j])
		}
		if ok {
			ok = w.constrainAtom(elseSt, a.Negate())
		}
		if !ok {
			continue
		}
		site.elseOK++
		elseSt.push(step{kind: stepIfNot, cond: cond, i: i})
		w.seq(elseSt, s.Else, k)
	}
}

// resolveField canonicalizes l4.* onto the transport header the path
// parsed, and returns the guarding header ("" = metadata).
func (w *walker) resolveField(st *state, name string) (string, string) {
	if name == "l4.sport" || name == "l4.dport" {
		suffix := name[3:]
		if w.isValid(st, "tcp") {
			return "tcp" + suffix, "tcp"
		}
		if w.isValid(st, "udp") {
			return "udp" + suffix, "udp"
		}
		return name, "l4"
	}
	return name, headerOf(name)
}

// constrainAtom refines the path condition with one gateway/key comparison.
// A field of an invalid header reads as 0 in match hardware, so the atom
// degenerates to a concrete test (no diagnostic: this is defined behavior).
func (w *walker) constrainAtom(st *state, a p4ir.Atom) bool {
	name, hdr := w.resolveField(st, a.Field)
	if hdr != "" && !w.isValid(st, hdr) {
		return a.Op.Eval(0, a.Value)
	}
	return w.constrainField(st, name, 0, a.Op, a.Value)
}

func (w *walker) constrainField(st *state, name string, width int, op p4ir.CmpOp, c uint64) bool {
	v := w.refine(st, name, width, func(v *Value) bool { return v.Constrain(op, c) })
	if v == nil {
		return false
	}
	if cv, ok := v.ConstValue(); ok {
		return w.applyInvariants(st, name, cv)
	}
	return true
}

// applyInvariants fires every not-yet-applied invariant whose If atom the
// now-constant field satisfies. A Then atom over an unparsed header refutes
// the path: the environment only produces such metadata on packets that
// carry the header.
func (w *walker) applyInvariants(st *state, name string, cv uint64) bool {
	for i := range w.opts.Invariants {
		inv := &w.opts.Invariants[i]
		if st.applied.has(i) || inv.If.Op != p4ir.CmpEq || inv.If.Field != name || inv.If.Value != cv {
			continue
		}
		st.applied = st.applied.with(i)
		for _, t := range inv.Then {
			n2, hdr := w.resolveField(st, t.Field)
			if hdr != "" && !w.isValid(st, hdr) {
				return false
			}
			if !w.constrainField(st, n2, 0, t.Op, t.Value) {
				return false
			}
		}
	}
	return true
}

func (w *walker) constrainKey(st *state, kd p4ir.KeyDef, op p4ir.CmpOp, c uint64) bool {
	name, hdr := w.resolveField(st, kd.Field)
	if hdr != "" && !w.isValid(st, hdr) {
		return op.Eval(0, c)
	}
	return w.constrainField(st, name, kd.Bits, op, c)
}

func (w *walker) constrainKeyMask(st *state, kd p4ir.KeyDef, mask, bits uint64) bool {
	name, hdr := w.resolveField(st, kd.Field)
	if hdr != "" && !w.isValid(st, hdr) {
		return 0&mask == bits&mask
	}
	v := w.refine(st, name, kd.Bits, func(v *Value) bool { return v.ConstrainMask(mask, bits) })
	if v == nil {
		return false
	}
	if cv, ok := v.ConstValue(); ok {
		return w.applyInvariants(st, name, cv)
	}
	return true
}

func (w *walker) applyTable(st *state, name string, k func(*state)) {
	t := w.tables[name]
	if t == nil {
		return // Program.Validate rejects this before Analyze runs
	}
	site := w.tbl[name]
	site.visits++

	if len(t.Entries) == 0 {
		// Runtime-populated: hit (unknown entry, each action possible)
		// or miss.
		for _, an := range t.Actions {
			if w.over() {
				return
			}
			hit := st.clone()
			hit.push(step{kind: stepHit, name: name, act: an})
			w.execAction(hit, t, an)
			k(hit)
		}
		if w.over() {
			return
		}
		miss := st.clone()
		miss.push(step{kind: stepMiss, name: name})
		k(miss)
		return
	}

	switch t.Match {
	case p4ir.MatchExact:
		w.applyExact(st, t, site, k)
	case p4ir.MatchTernary:
		w.applyTernary(st, t, site, k)
	case p4ir.MatchRange:
		w.applyRange(st, t, site, k)
	}
}

func (w *walker) applyExact(st *state, t *p4ir.TableDef, site *tblSite, k func(*state)) {
	single := len(t.Keys) == 1
	for i := range t.Entries {
		if w.over() {
			return
		}
		e := &t.Entries[i]
		br := st.clone()
		ok := true
		for ki := range t.Keys {
			if !w.constrainKey(br, t.Keys[ki], p4ir.CmpEq, e.Values[ki]) {
				ok = false
				break
			}
		}
		// First-match semantics for duplicates: entry i only matches when
		// no earlier entry already claimed the key (single-key tables).
		for j := 0; ok && single && j < i; j++ {
			ok = w.constrainKey(br, t.Keys[0], p4ir.CmpNe, t.Entries[j].Values[0])
		}
		if !ok {
			continue
		}
		site.entries[i]++
		act := e.ActionName(t)
		br.push(step{kind: stepEntry, name: t.Name, i: i, act: act})
		w.execAction(br, t, act)
		k(br)
	}
	if w.over() {
		return
	}
	miss := st.clone()
	ok := true
	if single {
		for i := range t.Entries {
			if !w.constrainKey(miss, t.Keys[0], p4ir.CmpNe, t.Entries[i].Values[0]) {
				ok = false
				break
			}
		}
	}
	if ok {
		miss.push(step{kind: stepMiss, name: t.Name})
		k(miss)
	}
}

func (w *walker) applyTernary(st *state, t *p4ir.TableDef, site *tblSite, k func(*state)) {
	for i := range t.Entries {
		if w.over() {
			return
		}
		e := &t.Entries[i]
		br := st.clone()
		ok := true
		for ki := range t.Keys {
			mask := maxVal(fieldWidth(t.Keys[ki].Field, t.Keys[ki].Bits))
			if e.Masks != nil {
				mask = e.Masks[ki]
			}
			if !w.constrainKeyMask(br, t.Keys[ki], mask, e.Values[ki]&mask) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Higher-priority exclusion is over-approximated away: a lower
		// entry may be counted matchable even when a higher one covers
		// it — the static shadow check reports the definite cases.
		site.entries[i]++
		act := e.ActionName(t)
		br.push(step{kind: stepEntry, name: t.Name, i: i, act: act})
		w.execAction(br, t, act)
		k(br)
	}
	if w.over() {
		return
	}
	miss := st.clone()
	miss.push(step{kind: stepMiss, name: t.Name})
	k(miss)
}

func (w *walker) applyRange(st *state, t *p4ir.TableDef, site *tblSite, k func(*state)) {
	kd := t.Keys[0]
	minLo, maxHi := ^uint64(0), uint64(0)
	for i := range t.Entries {
		if w.over() {
			return
		}
		e := &t.Entries[i]
		if e.Lo < minLo {
			minLo = e.Lo
		}
		if e.Hi > maxHi {
			maxHi = e.Hi
		}
		br := st.clone()
		if !w.constrainKey(br, kd, p4ir.CmpGe, e.Lo) || !w.constrainKey(br, kd, p4ir.CmpLe, e.Hi) {
			continue
		}
		site.entries[i]++
		act := e.ActionName(t)
		br.push(step{kind: stepEntry, name: t.Name, i: i, act: act})
		w.execAction(br, t, act)
		k(br)
	}
	// Miss cover: below every range and above every range (gaps between
	// ranges are dropped — missing a miss path is sound, it only means
	// fewer witnesses).
	if minLo > 0 {
		if w.over() {
			return
		}
		miss := st.clone()
		if w.constrainKey(miss, kd, p4ir.CmpLt, minLo) {
			miss.push(step{kind: stepMiss, name: t.Name})
			k(miss)
		}
	}
	if maxHi < maxVal(fieldWidth(kd.Field, kd.Bits)) {
		if w.over() {
			return
		}
		miss := st.clone()
		if w.constrainKey(miss, kd, p4ir.CmpGt, maxHi) {
			miss.push(step{kind: stepMiss, name: t.Name})
			k(miss)
		}
	}
}

// srcField reports whether an op Src names a PHV field (rather than a
// constant, register, or SALU program).
func srcField(src string) bool {
	if _, ok := fieldWidths[src]; ok {
		return true
	}
	return headerOf(src) != "" && !strings.ContainsAny(src, " []")
}

// execAction interprets one action's ops on the path: field writes, SALU
// ownership, recirculation safety. Ops never refute a path.
func (w *walker) execAction(st *state, t *p4ir.TableDef, actName string) {
	a := w.actions[actName]
	if a == nil {
		return
	}
	for _, op := range a.Ops {
		switch op.Kind {
		case p4ir.OpModifyField, p4ir.OpAddToField:
			w.fieldWrite(st, t, a, op)
		case p4ir.OpRegisterRead, p4ir.OpRegisterWrite, p4ir.OpRegisterRMW:
			w.saluTouch(st, t, a, op.Dst)
			if op.Kind == p4ir.OpRegisterRMW {
				if inc, _, ok := parseIncrement(op.Src); ok && inc >= 1 {
					st.recOK = true
				}
			}
		case p4ir.OpHash, p4ir.OpRandom:
			w.write(st, op.Dst, Top(fieldWidth(op.Dst, op.Bits)))
		case p4ir.OpRecirculate:
			// Progress alone bounds nothing: the walker does not model
			// register contents, so the least it demands is a gateway on
			// the path that can take the packet out of the loop.
			if st.guards == 0 {
				w.diag(CheckRecirc, SevError, t.Name,
					"action %s recirculates unconditionally: no gateway on the path can exit the loop, so every packet would recirculate forever", a.Name)
			}
			if !st.recOK {
				w.diag(CheckRecirc, SevError, t.Name,
					"action %s recirculates on a path with no strictly-increasing loop-state update; the loop has no termination proof", a.Name)
			}
		case p4ir.OpMulticast:
			if c, err := strconv.ParseUint(op.Src, 0, 64); err == nil {
				w.write(st, op.Dst, Const(fieldWidth(op.Dst, op.Bits), c))
			} else {
				w.write(st, op.Dst, Top(fieldWidth(op.Dst, op.Bits)))
			}
		case p4ir.OpGenerateDigest, p4ir.OpDropPacket, p4ir.OpNoOp:
		}
	}
}

// fieldWrite models OpModifyField/OpAddToField, diagnosing touches of
// headers that are invalid on this path. Unlike match keys (which read 0 by
// definition), a VLIW write to an invalid header's PHV container is
// undefined on real hardware — this is the property the verifier proves.
func (w *walker) fieldWrite(st *state, t *p4ir.TableDef, a *p4ir.ActionDef, op p4ir.Op) {
	dst, dstHdr := w.resolveField(st, op.Dst)
	if dstHdr != "" && !w.isValid(st, dstHdr) {
		w.diag(CheckInvalidAccess, SevError, t.Name,
			"action %s writes %s, but header %s can be invalid on a feasible path (%s)",
			a.Name, op.Dst, dstHdr, strings.Join(lastSteps(st.trail, 3), "; "))
		return
	}
	width := fieldWidth(dst, op.Bits)

	var srcVal *Value
	if c, err := strconv.ParseUint(op.Src, 0, 64); err == nil {
		srcVal = Const(width, c)
	} else if srcField(op.Src) {
		src, srcHdr := w.resolveField(st, op.Src)
		if srcHdr != "" && !w.isValid(st, srcHdr) {
			w.diag(CheckInvalidAccess, SevError, t.Name,
				"action %s reads %s, but header %s can be invalid on a feasible path (%s)",
				a.Name, op.Src, srcHdr, strings.Join(lastSteps(st.trail, 3), "; "))
			srcVal = Top(width)
		} else {
			sv := w.get(st, src, 0).Clone()
			sv.W = width
			srcVal = sv
		}
	} else {
		srcVal = Top(width) // register, list lookup, record slot, ...
	}

	if op.Kind == p4ir.OpAddToField {
		cur := w.get(st, dst, op.Bits)
		if cv, ok1 := cur.ConstValue(); ok1 {
			if sv, ok2 := srcVal.ConstValue(); ok2 {
				w.write(st, dst, Const(width, cv+sv))
				return
			}
		}
		w.write(st, dst, Top(width))
		return
	}
	w.write(st, dst, srcVal)
}

// saluTouch enforces the one-SALU-access-per-pass rule path-sensitively: a
// register's stateful ALU fires once per packet per pipeline, so a second
// touch on the same feasible pass is a conflict — whether it comes from
// another table or from a second op of the same table's action.
func (w *walker) saluTouch(st *state, t *p4ir.TableDef, a *p4ir.ActionDef, register string) {
	i := slices.IndexFunc(st.salu, func(o saluOwner) bool { return o.register == register })
	if i < 0 {
		// Clipped: the array may be shared with a forked path.
		st.salu = append(st.salu[:len(st.salu):len(st.salu)], saluOwner{register, t.Name})
		return
	}
	owner := st.salu[i].table
	if owner == t.Name {
		w.diag(CheckSALU, SevError, t.Name,
			"action %s accesses register %s twice in one pass; an RMT SALU fires at most once per packet (fold the accesses into one RMW)",
			a.Name, register)
		return
	}
	x, y := owner, t.Name
	if x > y {
		x, y = y, x
	}
	w.diag(CheckSALU, SevError, t.Name,
		"register %s is accessed by both %s and %s on one feasible %s pass (%s); an RMT SALU fires at most once per packet",
		register, x, y, t.Pipeline, strings.Join(lastSteps(st.trail, 3), "; "))
}

// parseIncrement recognizes the generator's strictly-increasing SALU
// programs: "+N" and "+N wrap M".
func parseIncrement(src string) (inc uint64, wrap uint64, ok bool) {
	if !strings.HasPrefix(src, "+") {
		return 0, 0, false
	}
	rest := strings.TrimPrefix(src, "+")
	if i := strings.Index(rest, " wrap "); i >= 0 {
		wv, err := strconv.ParseUint(strings.TrimSpace(rest[i+len(" wrap "):]), 0, 64)
		if err != nil {
			return 0, 0, false
		}
		wrap = wv
		rest = rest[:i]
	}
	n, err := strconv.ParseUint(strings.TrimSpace(rest), 0, 64)
	if err != nil {
		return 0, 0, false
	}
	return n, wrap, true
}

// leaf finishes one feasible path: count it and concretize a witness.
func (w *walker) leaf(st *state) {
	w.paths++
	if !w.opts.Witnesses {
		return
	}
	if len(w.witnesses) >= w.opts.MaxWitnesses {
		w.truncated = true
		return
	}
	wit := Witness{
		Program: w.p.Name,
		Path:    lastSteps(st.trail, -1),
		Fields:  map[string]uint64{},
	}
	for _, h := range w.p.Headers {
		if w.isValid(st, h) {
			wit.Headers = append(wit.Headers, h)
		}
	}
	for id, v := range st.input {
		if v == nil {
			continue
		}
		name := w.fieldNames[id]
		hdr := headerOf(name)
		if hdr == "l4" || (hdr != "" && !w.isValid(st, hdr)) {
			continue
		}
		wit.Fields[name] = v.Concretize()
	}
	key := witnessKey(wit)
	if w.witnessSeen[key] {
		return
	}
	w.witnessSeen[key] = true
	w.witnesses = append(w.witnesses, wit)
}

// witnessKey canonicalizes the concrete assignment so identical inputs
// reached via different trails dedup.
func witnessKey(wit Witness) string {
	names := make([]string, 0, len(wit.Fields))
	for n := range wit.Fields {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(strings.Join(wit.Headers, ","))
	for _, n := range names {
		fmt.Fprintf(&b, "|%s=%d", n, wit.Fields[n])
	}
	return b.String()
}

// staticShadow reports entries that a preceding entry provably covers.
func (w *walker) staticShadow() {
	for _, t := range w.p.Tables {
		for i := 1; i < len(t.Entries); i++ {
			for j := 0; j < i; j++ {
				if shadows(t, j, i) {
					w.diag(CheckShadowed, SevWarning, t.Name,
						"entry %d is shadowed by entry %d and can never fire", i, j)
					break
				}
			}
		}
	}
}

// shadows reports whether entry j of t makes entry i unmatchable.
func shadows(t *p4ir.TableDef, j, i int) bool {
	a, b := &t.Entries[j], &t.Entries[i]
	switch t.Match {
	case p4ir.MatchExact:
		for k := range t.Keys {
			if a.Values[k] != b.Values[k] {
				return false
			}
		}
		return true
	case p4ir.MatchTernary:
		// a shadows b when a's mask is a subset of b's, they agree on a's
		// mask, and a wins ties (higher or equal priority).
		if a.Priority < b.Priority {
			return false
		}
		for k := range t.Keys {
			am, bm := ^uint64(0), ^uint64(0)
			if a.Masks != nil {
				am = a.Masks[k]
			}
			if b.Masks != nil {
				bm = b.Masks[k]
			}
			if am&^bm != 0 {
				return false // a constrains a bit b leaves free: b can dodge
			}
			if a.Values[k]&am != b.Values[k]&am {
				return false
			}
		}
		return true
	case p4ir.MatchRange:
		return a.Priority >= b.Priority && a.Lo <= b.Lo && a.Hi >= b.Hi
	}
	return false
}

// reachability converts the walk's site counters into diagnostics. A
// truncated walk proves nothing about what it never reached, so the
// counters are only trusted when enumeration completed.
func (w *walker) reachability() {
	if w.truncated {
		return
	}
	for s, site := range w.gw {
		if site.opaque || site.visited == 0 {
			continue
		}
		if len(s.Then) > 0 && site.thenOK == 0 {
			w.diag(CheckGateway, SevWarning, s.If,
				"the condition never holds on any feasible %s path; the then-branch is dead", site.pipe)
		}
		if len(s.Else) > 0 && site.elseOK == 0 {
			w.diag(CheckGateway, SevWarning, s.If,
				"the condition always holds on every feasible %s path; the else-branch is dead", site.pipe)
		}
	}
	for _, t := range w.p.Tables {
		site := w.tbl[t.Name]
		if site.visits == 0 {
			w.diag(CheckUnreachable, SevWarning, t.Name,
				"no feasible path applies this table")
			continue
		}
		for i, n := range site.entries {
			if n == 0 {
				w.diag(CheckDeadEntry, SevWarning, t.Name,
					"entry %d never matches on any feasible path", i)
			}
		}
	}
}

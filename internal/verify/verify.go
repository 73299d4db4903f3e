package verify

import (
	"fmt"
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
// facts recirculation is judged by. fields and input share *Value pointers
// copy-on-write: a gateway constraint refines both while shared; an action
// write replaces only the current value.
type state struct {
	fields  map[string]*Value
	input   map[string]*Value
	valid   map[string]bool
	salu    map[string]string // register -> owning table, this pipeline pass
	applied map[int]bool      // invariant indices already applied
	trail   []string
	recOK   bool // a strict-increase RMW ran earlier on this path
	guards  int  // enclosing gateways whose condition is not `true`
}

func newState() *state {
	return &state{
		fields:  map[string]*Value{},
		input:   map[string]*Value{},
		valid:   map[string]bool{},
		salu:    map[string]string{},
		applied: map[int]bool{},
	}
}

func (s *state) clone() *state {
	c := &state{
		fields:  make(map[string]*Value, len(s.fields)),
		input:   make(map[string]*Value, len(s.input)),
		valid:   make(map[string]bool, len(s.valid)),
		salu:    make(map[string]string, len(s.salu)),
		applied: make(map[int]bool, len(s.applied)),
		trail:   append([]string(nil), s.trail...),
		recOK:   s.recOK,
		guards:  s.guards,
	}
	for k, v := range s.fields {
		c.fields[k] = v
	}
	for k, v := range s.input {
		c.input[k] = v
	}
	for k, v := range s.valid {
		c.valid[k] = v
	}
	for k, v := range s.salu {
		c.salu[k] = v
	}
	for k, v := range s.applied {
		c.applied[k] = v
	}
	return c
}

// get returns the field's current value, creating an unconstrained input
// on first touch (shared between fields and input — see state).
func (s *state) get(name string, width int) *Value {
	if v, ok := s.fields[name]; ok {
		return v
	}
	v := Top(fieldWidth(name, width))
	s.fields[name] = v
	s.input[name] = v
	return v
}

// refine replaces the field with a constrained clone; the input constraint
// follows only while still shared (i.e. the field was never overwritten).
func (s *state) refine(name string, width int, fn func(*Value) bool) bool {
	old := s.get(name, width)
	nv := old.Clone()
	if !fn(nv) {
		return false
	}
	s.fields[name] = nv
	if s.input[name] == old {
		s.input[name] = nv
	}
	return true
}

// write performs a strong update of the current value, leaving the input
// constraint behind.
func (s *state) write(name string, v *Value) { s.fields[name] = v }

// gwSite accumulates per-gateway feasibility counts across all paths.
type gwSite struct {
	pipe    p4ir.PipelineKind
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
	st := newState()
	// Inputs with fixed or bounded initial values.
	st.write("meta.one", Const(1, 1))
	st.input["meta.one"] = st.fields["meta.one"]
	st.write("meta.trigger_push", Const(1, 0))
	pl := &Value{W: 16, Lo: 64, Hi: 1500}
	st.fields["pkt_len"] = pl
	st.input["pkt_len"] = pl

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
	st.valid[node] = true
	st.trail = append(st.trail, "parse "+node)
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
		stop.trail = append(stop.trail, "accept")
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
		st2.salu = map[string]string{}
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
		w.gw[s] = g
	}
	return g
}

func (w *walker) gateway(st *state, s *p4ir.ControlStmt, k func(*state)) {
	site := w.gwSite(s)
	site.visited++
	cond, ok := p4ir.ParseCond(s.If)

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
		thenSt.trail = append(thenSt.trail, "if? "+s.If)
		w.seq(thenSt, s.Then, k)
		if w.over() {
			return
		}
		elseSt := branch()
		elseSt.trail = append(elseSt.trail, "else? "+s.If)
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
		thenSt.trail = append(thenSt.trail, "if "+cond.String())
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
		elseSt.trail = append(elseSt.trail, "if not("+a.String()+")")
		w.seq(elseSt, s.Else, k)
	}
}

// resolveField canonicalizes l4.* onto the transport header the path
// parsed, and returns the guarding header ("" = metadata).
func resolveField(st *state, name string) (string, string) {
	if name == "l4.sport" || name == "l4.dport" {
		suffix := name[3:]
		if st.valid["tcp"] {
			return "tcp" + suffix, "tcp"
		}
		if st.valid["udp"] {
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
	name, hdr := resolveField(st, a.Field)
	if hdr != "" && !st.valid[hdr] {
		return a.Op.Eval(0, a.Value)
	}
	return w.constrainField(st, name, 0, a.Op, a.Value)
}

func (w *walker) constrainField(st *state, name string, width int, op p4ir.CmpOp, c uint64) bool {
	if !st.refine(name, width, func(v *Value) bool { return v.Constrain(op, c) }) {
		return false
	}
	if cv, ok := st.fields[name].ConstValue(); ok {
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
		if st.applied[i] || inv.If.Op != p4ir.CmpEq || inv.If.Field != name || inv.If.Value != cv {
			continue
		}
		st.applied[i] = true
		for _, t := range inv.Then {
			n2, hdr := resolveField(st, t.Field)
			if hdr != "" && !st.valid[hdr] {
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
	name, hdr := resolveField(st, kd.Field)
	if hdr != "" && !st.valid[hdr] {
		return op.Eval(0, c)
	}
	return w.constrainField(st, name, kd.Bits, op, c)
}

func (w *walker) constrainKeyMask(st *state, kd p4ir.KeyDef, mask, bits uint64) bool {
	name, hdr := resolveField(st, kd.Field)
	if hdr != "" && !st.valid[hdr] {
		return 0&mask == bits&mask
	}
	if !st.refine(name, kd.Bits, func(v *Value) bool { return v.ConstrainMask(mask, bits) }) {
		return false
	}
	if cv, ok := st.fields[name].ConstValue(); ok {
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
			hit.trail = append(hit.trail, name+":"+an)
			w.execAction(hit, t, an)
			k(hit)
		}
		if w.over() {
			return
		}
		miss := st.clone()
		miss.trail = append(miss.trail, name+":miss")
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
		br.trail = append(br.trail, fmt.Sprintf("%s:entry%d:%s", t.Name, i, act))
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
		miss.trail = append(miss.trail, t.Name+":miss")
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
		br.trail = append(br.trail, fmt.Sprintf("%s:entry%d:%s", t.Name, i, act))
		w.execAction(br, t, act)
		k(br)
	}
	if w.over() {
		return
	}
	miss := st.clone()
	miss.trail = append(miss.trail, t.Name+":miss")
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
		br.trail = append(br.trail, fmt.Sprintf("%s:entry%d:%s", t.Name, i, act))
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
			miss.trail = append(miss.trail, t.Name+":miss")
			k(miss)
		}
	}
	if maxHi < maxVal(fieldWidth(kd.Field, kd.Bits)) {
		if w.over() {
			return
		}
		miss := st.clone()
		if w.constrainKey(miss, kd, p4ir.CmpGt, maxHi) {
			miss.trail = append(miss.trail, t.Name+":miss")
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
			st.write(op.Dst, Top(fieldWidth(op.Dst, op.Bits)))
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
				st.write(op.Dst, Const(fieldWidth(op.Dst, op.Bits), c))
			} else {
				st.write(op.Dst, Top(fieldWidth(op.Dst, op.Bits)))
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
	dst, dstHdr := resolveField(st, op.Dst)
	if dstHdr != "" && !st.valid[dstHdr] {
		w.diag(CheckInvalidAccess, SevError, t.Name,
			"action %s writes %s, but header %s can be invalid on a feasible path (%s)",
			a.Name, op.Dst, dstHdr, lastSteps(st.trail, 3))
		return
	}
	width := fieldWidth(dst, op.Bits)

	var srcVal *Value
	if c, err := strconv.ParseUint(op.Src, 0, 64); err == nil {
		srcVal = Const(width, c)
	} else if srcField(op.Src) {
		src, srcHdr := resolveField(st, op.Src)
		if srcHdr != "" && !st.valid[srcHdr] {
			w.diag(CheckInvalidAccess, SevError, t.Name,
				"action %s reads %s, but header %s can be invalid on a feasible path (%s)",
				a.Name, op.Src, srcHdr, lastSteps(st.trail, 3))
			srcVal = Top(width)
		} else {
			sv := st.get(src, 0).Clone()
			sv.W = width
			srcVal = sv
		}
	} else {
		srcVal = Top(width) // register, list lookup, record slot, ...
	}

	if op.Kind == p4ir.OpAddToField {
		cur := st.get(dst, op.Bits)
		if cv, ok1 := cur.ConstValue(); ok1 {
			if sv, ok2 := srcVal.ConstValue(); ok2 {
				st.write(dst, Const(width, cv+sv))
				return
			}
		}
		st.write(dst, Top(width))
		return
	}
	st.write(dst, srcVal)
}

// saluTouch enforces the one-SALU-access-per-pass rule path-sensitively: a
// register's stateful ALU fires once per packet per pipeline, so a second
// touch on the same feasible pass is a conflict — whether it comes from
// another table or from a second op of the same table's action.
func (w *walker) saluTouch(st *state, t *p4ir.TableDef, a *p4ir.ActionDef, register string) {
	owner, seen := st.salu[register]
	if !seen {
		st.salu[register] = t.Name
		return
	}
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
		register, x, y, t.Pipeline, lastSteps(st.trail, 3))
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

func lastSteps(trail []string, n int) string {
	if len(trail) > n {
		trail = trail[len(trail)-n:]
	}
	return strings.Join(trail, "; ")
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
		Path:    append([]string(nil), st.trail...),
		Fields:  map[string]uint64{},
	}
	for _, h := range w.p.Headers {
		if st.valid[h] {
			wit.Headers = append(wit.Headers, h)
		}
	}
	for name, v := range st.input {
		hdr := headerOf(name)
		if hdr == "l4" || (hdr != "" && !st.valid[hdr]) {
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

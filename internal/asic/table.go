package asic

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"github.com/hypertester/hypertester/internal/obs"
)

// Action is the code body of a match-action entry. Actions run against the
// PHV only — they cannot allocate packets or touch payloads.
type Action func(p *PHV)

// MatchKind selects the table's matching semantics and, in the resource
// model, the memory it consumes.
type MatchKind uint8

// Supported match kinds.
const (
	MatchExact   MatchKind = iota // SRAM exact match
	MatchTernary                  // TCAM value/mask with priority
	MatchRange                    // TCAM-expanded range match on one key
)

func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchTernary:
		return "ternary"
	case MatchRange:
		return "range"
	}
	return "unknown"
}

// Table is a runtime match-action table. Entries are installed by the
// control plane (switch CPU) and matched per packet by the pipeline.
// Ternary and range entries are kept in priority order (higher first, ties
// in insertion order), so a lookup is a scan that stops at the first match.
type Table struct {
	Name string
	Kind MatchKind
	Keys []Field

	exact   map[string]Action
	ternary []ternaryEntry
	ranges  []rangeEntry
}

type ternaryEntry struct {
	value, mask []uint64
	priority    int
	action      Action
}

type rangeEntry struct {
	lo, hi   uint64
	priority int
	action   Action
}

// maxTableKeys is the widest key a table accepts, in fields: Apply gathers
// the key on the stack.
const maxTableKeys = 8

// NewTable constructs an empty table. It panics on a key wider than
// maxTableKeys fields.
func NewTable(name string, kind MatchKind, keys ...Field) *Table {
	if len(keys) > maxTableKeys {
		panic(fmt.Sprintf("asic: table %s has %d key fields, more than %d", name, len(keys), maxTableKeys))
	}
	t := &Table{Name: name, Kind: kind, Keys: keys}
	if kind == MatchExact {
		t.exact = make(map[string]Action)
	}
	return t
}

func exactKey(values []uint64) string {
	b := make([]byte, 8*len(values))
	for i, v := range values {
		binary.BigEndian.PutUint64(b[i*8:], v)
	}
	return string(b)
}

// AddExact installs an exact-match entry keyed on the given values (one per
// key field, in Keys order). A key that is already installed is refused, as
// P4Runtime refuses a duplicate entry.
func (t *Table) AddExact(values []uint64, a Action) error {
	if t.Kind != MatchExact {
		return fmt.Errorf("asic: AddExact on %s table %s", t.Kind, t.Name)
	}
	if len(values) != len(t.Keys) {
		return fmt.Errorf("asic: table %s wants %d key values, got %d", t.Name, len(t.Keys), len(values))
	}
	k := exactKey(values)
	if _, dup := t.exact[k]; dup {
		return fmt.Errorf("asic: table %s already has an entry for key %v", t.Name, values)
	}
	t.exact[k] = a
	return nil
}

// AddTernary installs a value/mask entry with a priority (higher wins).
func (t *Table) AddTernary(value, mask []uint64, priority int, a Action) error {
	if t.Kind != MatchTernary {
		return fmt.Errorf("asic: AddTernary on %s table %s", t.Kind, t.Name)
	}
	if len(value) != len(t.Keys) || len(mask) != len(t.Keys) {
		return fmt.Errorf("asic: table %s wants %d key values", t.Name, len(t.Keys))
	}
	// After every entry of at least this priority: ties keep insertion order.
	i := sort.Search(len(t.ternary), func(i int) bool { return t.ternary[i].priority < priority })
	t.ternary = slices.Insert(t.ternary, i, ternaryEntry{value: value, mask: mask, priority: priority, action: a})
	return nil
}

// AddRange installs a [lo,hi] entry on a single-key range table.
func (t *Table) AddRange(lo, hi uint64, priority int, a Action) error {
	if t.Kind != MatchRange {
		return fmt.Errorf("asic: AddRange on %s table %s", t.Kind, t.Name)
	}
	if len(t.Keys) != 1 {
		return fmt.Errorf("asic: range table %s must have exactly one key", t.Name)
	}
	if lo > hi {
		return fmt.Errorf("asic: range table %s entry lo>hi", t.Name)
	}
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].priority < priority })
	t.ranges = slices.Insert(t.ranges, i, rangeEntry{lo: lo, hi: hi, priority: priority, action: a})
	return nil
}

// Apply looks the PHV up and runs the matching action, if any. It reports
// whether an entry hit.
func (t *Table) Apply(p *PHV) bool {
	var keyBuf [maxTableKeys]uint64
	keys := keyBuf[:0]
	for _, f := range t.Keys {
		keys = append(keys, f.Get(p))
	}
	var act Action
	hit := false
	switch t.Kind {
	case MatchExact:
		// Key bytes stay on the stack: indexing the map with a converted
		// byte slice does not allocate.
		var kb [8 * maxTableKeys]byte
		for i, v := range keys {
			binary.BigEndian.PutUint64(kb[i*8:], v)
		}
		if a, ok := t.exact[string(kb[:8*len(keys)])]; ok {
			act, hit = a, true
		}
	case MatchTernary:
	scan:
		for i := range t.ternary {
			e := &t.ternary[i]
			for j, k := range keys {
				if k&e.mask[j] != e.value[j]&e.mask[j] {
					continue scan
				}
			}
			act, hit = e.action, true
			break
		}
	case MatchRange:
		for i := range t.ranges {
			if e := &t.ranges[i]; keys[0] >= e.lo && keys[0] <= e.hi {
				act, hit = e.action, true
				break
			}
		}
	}
	if p.Trace != nil {
		kind := obs.KindTableMiss
		if hit {
			kind = obs.KindTableHit
		}
		var k0 int64
		if len(keys) > 0 {
			k0 = int64(keys[0])
		}
		p.Trace.Emit(p.TraceAt, kind, p.Meta.UID, t.Name, k0, 0)
	}
	if act != nil {
		act(p)
	}
	return hit
}

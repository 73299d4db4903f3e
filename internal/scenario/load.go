package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Suite is a named list of scenarios, the unit suite files declare and the
// CLI's -suite mode runs.
type Suite struct {
	Name      string      `json:"name"`
	Scenarios []*Scenario `json:"scenarios"`
}

// Load reads and validates a suite file. Program files referenced by
// scenarios resolve relative to the suite file's directory and are read
// into the scenario here, so a loaded suite never touches the filesystem
// again. Every parse error carries file:line:col.
func Load(path string) (*Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	return Parse(data, path, filepath.Dir(path))
}

// Parse parses and validates suite JSON. name labels errors (usually the
// file path); dir resolves program file references ("" forbids them, for
// callers feeding untrusted bytes).
func Parse(data []byte, name, dir string) (*Suite, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var suite Suite
	if err := dec.Decode(&suite); err != nil {
		return nil, located(data, name, err, dec.InputOffset())
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("%s:%s: trailing content after the suite object",
			name, lineCol(data, dec.InputOffset()))
	}
	if suite.Name == "" {
		return nil, fmt.Errorf("%s: suite has no name", name)
	}
	if len(suite.Scenarios) == 0 {
		return nil, fmt.Errorf("%s: suite %q declares no scenarios", name, suite.Name)
	}
	seen := make(map[string]bool, len(suite.Scenarios))
	for i, sc := range suite.Scenarios {
		if err := sc.Validate(); err != nil {
			// Point at the offending field when the error names one, at
			// the scenario otherwise.
			path := []any{"scenarios", i}
			var fe *FieldError
			if errors.As(err, &fe) {
				path = append(path, fe.Path...)
			}
			return nil, fmt.Errorf("%s:%s: scenarios[%d]: %w", name, lineCol(data, valueOffset(data, path)), i, err)
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("%s: duplicate scenario name %q", name, sc.Name)
		}
		seen[sc.Name] = true
		if sc.Program.File != "" {
			if dir == "" {
				return nil, fmt.Errorf("%s: scenario %q: program file references are not allowed here", name, sc.Name)
			}
			src, err := os.ReadFile(filepath.Join(dir, sc.Program.File))
			if err != nil {
				return nil, fmt.Errorf("%s: scenario %q: program %w", name, sc.Name, err)
			}
			sc.Program.Source = Source(src)
			if sc.Program.Name == "" {
				sc.Program.Name = sc.Program.File
			}
			// The scenario is now self-contained; provenance lives in Name.
			sc.Program.File = ""
		}
	}
	return &suite, nil
}

// located rewrites a json decode error with file:line:col derived from the
// error's byte offset (or the decoder's position for offset-less errors
// like unknown fields).
func located(data []byte, name string, err error, fallbackOff int64) error {
	off := fallbackOff
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		off = syn.Offset
	case errors.As(err, &typ):
		off = typ.Offset
	}
	return fmt.Errorf("%s:%s: %w", name, lineCol(data, off), err)
}

// valueOffset returns the byte offset at which the value at path starts in
// the JSON document data (string elements select object keys, ints array
// elements). When the path does not exist in the document — a field left at
// its zero value — it returns the offset of the deepest enclosing value that
// does.
func valueOffset(data []byte, path []any) int64 {
	dec := json.NewDecoder(bytes.NewReader(data))
	best := int64(0)
	// start is where the next value begins: past the whitespace, comma or
	// colon after the decoder's position.
	start := func() int64 {
		off := dec.InputOffset()
		for off < int64(len(data)) && bytes.IndexByte([]byte(" \t\r\n,:"), data[off]) >= 0 {
			off++
		}
		return off
	}
	var descend func(path []any) bool
	descend = func(path []any) bool {
		best = start()
		if len(path) == 0 {
			return true
		}
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch want := path[0].(type) {
		case string:
			if tok != json.Delim('{') {
				return false
			}
			for dec.More() {
				key, err := dec.Token()
				if err != nil {
					return false
				}
				if key == want {
					return descend(path[1:])
				}
				if err := dec.Decode(new(json.RawMessage)); err != nil {
					return false
				}
			}
		case int:
			if tok != json.Delim('[') {
				return false
			}
			for i := 0; dec.More(); i++ {
				if i == want {
					return descend(path[1:])
				}
				if err := dec.Decode(new(json.RawMessage)); err != nil {
					return false
				}
			}
		}
		return false
	}
	descend(path) // on a missing element best stays at the last value entered
	return best
}

// lineCol renders a 1-based "line:col" for a byte offset into data.
func lineCol(data []byte, off int64) string {
	if off < 0 {
		off = 0
	}
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	line, col := 1, 1
	for _, b := range data[:off] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("%d:%d", line, col)
}

// EncodeSuite renders a suite as indented JSON, the exact bytes Parse
// accepts — used to generate the committed starter suite file and the test
// that keeps it in sync with the built-in library. HTML escaping is off so
// check operators like ">=" stay readable.
func EncodeSuite(s *Suite) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

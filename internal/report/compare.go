package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Comparison is the outcome of diffing one candidate document against
// its committed baseline.
type Comparison struct {
	Experiment string
	// Failures name every difference: a result missing from either
	// document, and each result value that differs, is missing or is
	// new, as "<key> <path>: <base> -> <got>".
	Failures []string
	// Checked counts the result values compared.
	Checked int
}

// Pass reports whether the candidate equals the baseline.
func (c *Comparison) Pass() bool { return len(c.Failures) == 0 }

// String renders the summary line and the differences.
func (c *Comparison) String() string {
	var b strings.Builder
	status := "PASS"
	if !c.Pass() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s %s: %d values compared, %d differences\n", status, c.Experiment, c.Checked, len(c.Failures))
	for _, f := range c.Failures {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	return b.String()
}

// Compare diffs a candidate document against its baseline exactly. The
// simulator is deterministic, so every value of every result must equal
// the committed one, in either direction: a better number also means
// the baseline no longer describes the tree. Results pair up by Key
// (results sharing a key pair in the order of their encodings), and
// each pair is compared through its JSON form, so a field added to
// Result is gated with no edit here. The document-level host fields
// (wall_ms, parallel, allocs_per_op, bytes_per_op) are not compared.
func Compare(baseline, candidate Report) *Comparison {
	c := &Comparison{Experiment: candidate.Experiment}
	if baseline.Experiment != candidate.Experiment {
		c.Failures = append(c.Failures,
			fmt.Sprintf("experiment mismatch: baseline %q vs candidate %q", baseline.Experiment, candidate.Experiment))
		return c
	}
	// A gate that reads nothing is not a gate.
	if len(baseline.Results) == 0 || len(candidate.Results) == 0 {
		c.Failures = append(c.Failures, fmt.Sprintf("baseline holds %d results, candidate %d: both must hold some",
			len(baseline.Results), len(candidate.Results)))
	}
	base, got := byKey(baseline.Results), byKey(candidate.Results)
	for _, key := range sortedKeys(base, got) {
		bs, gs := base[key], got[key]
		for i := range max(len(bs), len(gs)) {
			name := key
			if max(len(bs), len(gs)) > 1 {
				name = fmt.Sprintf("%s#%d", key, i)
			}
			switch {
			case i >= len(gs):
				c.Failures = append(c.Failures, name+": result missing from candidate")
			case i >= len(bs):
				c.Failures = append(c.Failures, name+": result absent from baseline")
			default:
				c.diff(name, "", bs[i], gs[i])
			}
		}
	}
	return c
}

// byKey groups the results' decoded JSON forms by Key, each group in
// the order of its encodings so equal groups pair up whatever order
// the documents list them in. Numbers decode as json.Number, so no
// uint64 passes through a float64.
func byKey(results []Result) map[string][]any {
	enc := make(map[string][][]byte, len(results))
	for _, r := range results {
		data, err := json.Marshal(r)
		if err != nil {
			panic(err) // Result holds only strings, numbers, bools and maps and slices of them
		}
		enc[r.Key()] = append(enc[r.Key()], data)
	}
	out := make(map[string][]any, len(enc))
	for key, group := range enc { //slpmt:determinism-ok: each key's group is sorted on its own
		sort.Slice(group, func(i, j int) bool { return bytes.Compare(group[i], group[j]) < 0 })
		for _, data := range group {
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.UseNumber()
			var v any
			if err := dec.Decode(&v); err != nil {
				panic(err)
			}
			out[key] = append(out[key], v)
		}
	}
	return out
}

// sortedKeys is the sorted union of two maps' keys.
func sortedKeys[V any](a, b map[string]V) []string {
	keys := make([]string, 0, len(a))
	for k := range a { //slpmt:determinism-ok: collected keys are sorted below
		keys = append(keys, k)
	}
	for k := range b { //slpmt:determinism-ok: collected keys are sorted below
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// absent stands in for a field or list entry one side lacks.
type absent struct{}

// diff compares two decoded JSON values at path, recording each leaf
// that differs and each field or entry only one side holds.
func (c *Comparison) diff(key, path string, base, got any) {
	if bm, ok := base.(map[string]any); ok {
		if gm, ok := got.(map[string]any); ok {
			for _, name := range sortedKeys(bm, gm) {
				p := name
				if path != "" {
					p = path + "." + name
				}
				c.diff(key, p, field(bm, name), field(gm, name))
			}
			return
		}
	}
	if bl, ok := base.([]any); ok {
		if gl, ok := got.([]any); ok {
			for i := range max(len(bl), len(gl)) {
				c.diff(key, fmt.Sprintf("%s[%d]", path, i), entry(bl, i), entry(gl, i))
			}
			return
		}
	}
	c.Checked++
	if base != got {
		c.Failures = append(c.Failures, fmt.Sprintf("%s %s: %s -> %s", key, path, describe(base), describe(got)))
	}
}

func field(m map[string]any, name string) any {
	if v, ok := m[name]; ok {
		return v
	}
	return absent{}
}

func entry(l []any, i int) any {
	if i < len(l) {
		return l[i]
	}
	return absent{}
}

// describe renders one side of a difference: a scalar as its JSON
// text, a composite by its size.
func describe(v any) string {
	switch v := v.(type) {
	case absent:
		return "absent"
	case map[string]any:
		return fmt.Sprintf("{%d fields}", len(v))
	case []any:
		return fmt.Sprintf("[%d entries]", len(v))
	case string:
		return fmt.Sprintf("%q", v)
	}
	return fmt.Sprint(v)
}

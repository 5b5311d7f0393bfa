// Package httpd is a lint fixture wire package for the wiretag
// analyzer: documents reach the encoder through a sink helper's any
// parameter, so the closure is seeded from call-site types, not
// declarations.
package httpd

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Health is fully tagged: not flagged.
type Health struct {
	OK     bool   `json:"ok"`
	Uptime int64  `json:"uptime_ms"`
	detail string // unexported: exempt
}

// Status reaches the wire through WriteDoc's any parameter; Round has
// no tag: flagged.
type Status struct {
	Round int
	Hosts []Host `json:"hosts"`
}

// Host enters the closure through Status's field type; Name has no
// tag: flagged.
type Host struct {
	Name string
	Port int `json:"port"`
}

// WriteDoc is a sink helper: its v parameter flows to json.Marshal,
// so argument types at its call sites seed the closure.
func WriteDoc(w io.Writer, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Emit hands both documents to the helper.
func Emit(w io.Writer) error {
	if err := WriteDoc(w, Health{OK: true, detail: "up"}); err != nil {
		return err
	}
	return WriteDoc(w, Status{})
}

// Legacy keeps its Go field name on the wire; the suppression records
// why: not flagged.
type Legacy struct {
	//lint:allow wiretag/tag pre-tag peers still parse the Go identifier; retire with the v1 protocol
	Seq int
}

// EmitLegacy keeps Legacy wire-reachable.
func EmitLegacy(w io.Writer) error { return WriteDoc(w, Legacy{}) }

// DumpUnsorted iterates a map straight into the writer; iteration
// order is random: flagged.
func DumpUnsorted(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// DumpSorted collects the keys first and writes from the sorted
// slice: not flagged.
func DumpSorted(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

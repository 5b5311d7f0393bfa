// Package httpd is a lint fixture wire package for the wiretag
// analyzer: documents reach the encoder through a sink helper's any
// parameter, so the closure is seeded from call-site types, not
// declarations.
package httpd

import (
	"encoding/json"
	"io"
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

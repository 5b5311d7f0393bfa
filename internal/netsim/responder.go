package netsim

import (
	"bytes"
	"crypto/tls"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"whowas/internal/ipaddr"
	"whowas/internal/websim"
)

// maxHeadBytes bounds a request head (request line and header fields,
// through the blank line). The fetcher's are under 200 bytes; a longer
// one closes the connection rather than growing the reader.
const maxHeadBytes = 2048

var errHeadTooLong = errors.New("netsim: request head too long")

// headReader cuts request heads out of a connection's byte stream,
// keeping whatever a client pipelined behind one for the next call.
type headReader struct {
	buf  [maxHeadBytes]byte
	r, w int // buf[r:w] is read from the connection and not yet consumed
}

var headReaders = sync.Pool{New: func() any { return new(headReader) }}

// next returns the next request head, valid until the following call.
func (h *headReader) next(c io.Reader) ([]byte, error) {
	for {
		if end := headEnd(h.buf[h.r:h.w]); end > 0 {
			head := h.buf[h.r : h.r+end]
			h.r += end
			return head, nil
		}
		if h.r > 0 {
			h.w = copy(h.buf[:], h.buf[h.r:h.w])
			h.r = 0
		}
		if h.w == len(h.buf) {
			return nil, errHeadTooLong
		}
		n, err := c.Read(h.buf[h.w:])
		h.w += n
		if n == 0 && err != nil {
			return nil, err
		}
	}
}

// headEnd returns the length of b through its first blank line, or 0
// when b holds none yet.
func headEnd(b []byte) int {
	for i := 0; ; {
		j := bytes.IndexByte(b[i:], '\n')
		if j < 0 {
			return 0
		}
		i += j + 1
		if i < len(b) && b[i] == '\n' {
			return i + 1
		}
		if i+1 < len(b) && b[i] == '\r' && b[i+1] == '\n' {
			return i + 2
		}
	}
}

// cutLine splits b at its first newline, dropping the line ending.
// Every line of a head headEnd delimited has one.
func cutLine(b []byte) (line, rest []byte) {
	i := bytes.IndexByte(b, '\n')
	line, rest = b[:i], b[i+1:]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest
}

// parseHead extracts the two things the responder needs from a request
// head: the decoded path, and whether the connection closes after the
// response. It accepts a subset of what net/http's request reader
// accepts — GET, an origin-form target, HTTP/1.0 or 1.1, token field
// names, no folded lines, no body framing — and agrees with it on both
// answers there (FuzzRequestHead); anything else reports !ok and the
// responder closes the connection, as it does for any request it
// cannot parse. The path may be decoded in place, so head is scratch
// afterwards.
func parseHead(head []byte) (path []byte, closeAfter, ok bool) {
	line, rest := cutLine(head)
	target, found := bytes.CutPrefix(line, []byte("GET "))
	if !found {
		return nil, false, false
	}
	target, proto, _ := bytes.Cut(target, []byte(" "))
	http10 := string(proto) == "HTTP/1.0"
	if !http10 && string(proto) != "HTTP/1.1" {
		return nil, false, false
	}
	if len(target) == 0 || target[0] != '/' {
		return nil, false, false
	}
	for _, c := range target {
		if c < 0x20 || c == 0x7f {
			return nil, false, false
		}
	}
	path, _, _ = bytes.Cut(target, []byte("?"))
	if path, ok = unescapePath(path); !ok {
		return nil, false, false
	}

	var hasClose, hasKeepAlive bool
	hosts := 0
	for {
		line, rest = cutLine(rest)
		if len(line) == 0 {
			break
		}
		name, value, found := bytes.Cut(line, []byte(":"))
		if !found || len(name) == 0 {
			return nil, false, false
		}
		for _, c := range name {
			if !tokenByte(c) {
				return nil, false, false
			}
		}
		for _, c := range value {
			if c < 0x20 && c != '\t' || c == 0x7f {
				return nil, false, false
			}
		}
		switch {
		case asciiFoldIs(name, "connection"):
			for len(value) > 0 {
				var tok []byte
				tok, value, _ = bytes.Cut(value, []byte(","))
				tok = bytes.Trim(tok, " \t")
				hasClose = hasClose || asciiFoldIs(tok, "close")
				hasKeepAlive = hasKeepAlive || asciiFoldIs(tok, "keep-alive")
			}
		case asciiFoldIs(name, "host"):
			if hosts++; hosts > 1 {
				return nil, false, false
			}
		case asciiFoldIs(name, "content-length"), asciiFoldIs(name, "transfer-encoding"):
			return nil, false, false
		}
	}
	if http10 {
		return path, hasClose || !hasKeepAlive, true
	}
	return path, hasClose, true
}

// tokenByte reports whether c may appear in a header field name (RFC
// 7230 tchar). A line starting with a space — a folded continuation —
// fails here too.
func tokenByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	return strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// asciiFoldIs reports whether b equals lower under ASCII case folding.
func asciiFoldIs(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// unescapePath decodes %XX escapes in place, as net/url does for a
// path; a malformed escape fails.
func unescapePath(p []byte) ([]byte, bool) {
	i := bytes.IndexByte(p, '%')
	if i < 0 {
		return p, true
	}
	out := p[:i]
	for ; i < len(p); i++ {
		c := p[i]
		if c == '%' {
			if i+2 >= len(p) {
				return nil, false
			}
			var b [1]byte
			if _, err := hex.Decode(b[:], p[i+1:i+3]); err != nil {
				return nil, false
			}
			c = b[0]
			i += 2
		}
		out = append(out, c)
	}
	return out, true
}

// serveHTTP answers HTTP requests on one connection with the cloud's
// content for the network's *current* day — a keep-alive connection
// held across SetDay serves fresh content, like a long-lived server
// would. On 443 the connection is wrapped in TLS with a self-signed
// certificate, as most 2013 cloud HTTPS endpoints were.
func (n *Network) serveHTTP(c net.Conn, ip ipaddr.Addr, useTLS bool) {
	defer c.Close()
	if useTLS {
		tc := tls.Server(c, n.tlsConf)
		if err := tc.Handshake(); err != nil {
			return
		}
		n.stats.TLSConns.Add(1)
		c = tc
	}
	hr := headReaders.Get().(*headReader)
	hr.r, hr.w = 0, 0
	defer headReaders.Put(hr)
	for {
		head, err := hr.next(c)
		if err != nil {
			return
		}
		path, closeAfter, ok := parseHead(head)
		if !ok {
			return
		}
		n.stats.Requests.Add(1)
		day := n.Day()
		n.countRequest(day, ip)
		if !n.respond(c, day, ip, path) || closeAfter {
			return
		}
	}
}

// notFoundPage is the body every simulated server returns for an
// unknown path.
const notFoundPage = "<html><head><title>404 Not Found</title></head><body><h1>Not Found</h1></body></html>\n"

// responseBufs holds response assembly buffers. One is taken per
// request and returned before the connection waits for the next:
// keeping it for the connection's life would pin a page-sized buffer
// to every idle connection.
var responseBufs = sync.Pool{New: func() any { return new([]byte) }}

// respond writes the response for a request to ip on the given day in
// a single Write. It reports false when the connection is done: the
// write failed, or the port is open but the application layer is
// failing today — the backend dies mid-request, like the transient
// failures WhoWas observed, the client sees a reset, and the IP counts
// as unavailable.
func (n *Network) respond(c net.Conn, day int, ip ipaddr.Addr, path []byte) bool {
	profile, revision, ok := n.cloud.PageOn(day, ip)
	if !ok {
		return false
	}
	buf := responseBufs.Get().(*[]byte)
	b := (*buf)[:0]
	switch string(path) {
	case "/robots.txt":
		b = appendResponse(b, 200, []websim.Header{{Key: "Content-Type", Value: "text/plain"}}, profile.RobotsTxt())
	case "/":
		var hs [8]websim.Header
		b = appendResponse(b, profile.StatusCode, pageHeaders(profile.AppendHeaders(hs[:0], revision)), profile.RenderPage(revision))
	default:
		b = appendResponse(b, 404, []websim.Header{{Key: "Content-Type", Value: "text/html"}, {Key: "Server", Value: profile.Server}}, notFoundPage)
	}
	_, err := c.Write(b)
	*buf = b
	responseBufs.Put(buf)
	return err == nil
}

// pageHeaders puts a profile's headers in the order net/http writes
// them — canonical keys, sorted — defaulting the content type when the
// profile names none.
func pageHeaders(hs []websim.Header) []websim.Header {
	const ctype = "Content-Type"
	hasType := false
	out := hs[:0]
	for _, h := range hs {
		h.Key = http.CanonicalHeaderKey(h.Key)
		if h.Key == ctype {
			if h.Value == "" {
				continue
			}
			hasType = true
		}
		out = append(out, h)
	}
	if !hasType {
		out = append(out, websim.Header{Key: ctype, Value: "text/html; charset=utf-8"})
	}
	slices.SortFunc(out, func(a, b websim.Header) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// appendResponse appends the wire image of an HTTP/1.1 response to a
// GET: byte for byte what http.Response.Write emits for the same
// status, headers (sorted by key) and body. internal/faults cuts
// streams at byte budgets, so every chaos digest depends on these
// bytes; TestResponderMatchesNetHTTP holds them to the oracle.
func appendResponse(b []byte, status int, headers []websim.Header, body string) []byte {
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(status)...)
	b = append(b, "\r\n"...)
	if len(body) > 0 {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	for _, h := range headers {
		b = append(b, h.Key...)
		b = append(b, ": "...)
		b = append(b, h.Value...)
		b = append(b, "\r\n"...)
	}
	// net/http writes an empty body's length after the other fields,
	// and not at all where the status forbids a body.
	if len(body) == 0 && status/100 != 1 && status != 204 && status != 304 {
		b = append(b, "Content-Length: 0\r\n"...)
	}
	b = append(b, "\r\n"...)
	return append(b, body...)
}

package netsim

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"testing/iotest"

	"whowas/internal/cloudsim"
	"whowas/internal/ipaddr"
	"whowas/internal/websim"
)

// oracleResponse is the response the responder built before it wrote
// its own bytes: an *http.Response serialised by net/http. It lives
// here only, as the reference the hand-written wire image is held to.
func oracleResponse(status int, ctype, body string, headers map[string]string) []byte {
	h := http.Header{}
	for k, v := range headers {
		h.Set(k, v)
	}
	if h.Get("Content-Type") == "" {
		if ctype == "" {
			ctype = "text/html; charset=utf-8"
		}
		h.Set("Content-Type", ctype)
	}
	resp := &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       &http.Request{Method: http.MethodGet},
	}
	var buf bytes.Buffer
	if err := resp.Write(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// oracleRespond is the routing the responder replaced, over
// oracleResponse; nil means no response (the connection resets).
func oracleRespond(cloud *cloudsim.Cloud, day int, ip ipaddr.Addr, path string) []byte {
	profile, revision, ok := cloud.PageOn(day, ip)
	if !ok {
		return nil
	}
	switch {
	case path == "/robots.txt":
		return oracleResponse(200, "text/plain", profile.RobotsTxt(), nil)
	case path == "/" || path == "":
		headers := map[string]string{}
		for _, h := range profile.AppendHeaders(nil, revision) {
			headers[h.Key] = h.Value
		}
		return oracleResponse(profile.StatusCode, "", profile.RenderPage(revision), headers)
	default:
		return oracleResponse(404, "text/html", notFoundPage, map[string]string{"Server": profile.Server})
	}
}

// captureConn records what the responder writes.
type captureConn struct {
	net.Conn
	out []byte
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	return len(p), nil
}

// TestResponderMatchesNetHTTP holds the hand-written response to its
// oracle byte for byte, for every bound (ip, day) of a scale-512 cloud
// and every kind of path. internal/faults cuts streams at byte
// budgets, so a single differing byte would move every chaos digest.
func TestResponderMatchesNetHTTP(t *testing.T) {
	n, cloud := testNetwork(t)
	paths := []string{"/", "/robots.txt", "/deep/page.html", "/about"}
	statuses := map[int]int{}
	triples, about404 := 0, 0
	step := 1
	if testing.Short() {
		step = 7
	}
	for day := 0; day < cloud.Days(); day += step {
		cloud.Ranges().Each(func(ip ipaddr.Addr) bool {
			if !cloud.StateAt(day, ip).Bound {
				return true
			}
			profile, _, _ := cloud.PageOn(day, ip)
			for _, path := range paths {
				want := oracleRespond(cloud, day, ip, path)
				var c captureConn
				served := n.respond(&c, day, ip, []byte(path))
				if served != (want != nil) {
					t.Fatalf("%s day %d %s: served = %v, oracle response = %v", ip, day, path, served, want != nil)
				}
				if !bytes.Equal(c.out, want) {
					t.Fatalf("%s day %d %s:\n got %q\nwant %q", ip, day, path, c.out, want)
				}
				if want == nil {
					continue
				}
				triples++
				if path == "/" {
					statuses[profile.StatusCode]++
				}
				if path == "/about" && bytes.HasPrefix(want, []byte("HTTP/1.1 404 Not Found\r\n")) {
					about404++
				}
			}
			return true
		})
	}
	t.Logf("%d (ip, day, path) responses equal; front-page statuses %v; %d 404s for /about", triples, statuses, about404)
	for _, status := range []int{200, 301, 403, 404, 500} {
		if statuses[status] == 0 {
			t.Errorf("no front page with status %d in the sample", status)
		}
	}
	// The front page links /about, but only "/" and "/robots.txt" are
	// served: the fetcher never follows a link.
	if about404 == 0 {
		t.Error("no 404 for /about in the sample")
	}
}

// TestResponseShapes covers the shapes the cloud's profiles do not
// produce today but net/http serialises differently: an empty body
// (its Content-Length moves behind the other fields, or vanishes
// where the status forbids a body), an unnamed status, an empty
// header value, a profile without a content type.
func TestResponseShapes(t *testing.T) {
	cases := []struct {
		status  int
		body    string
		headers map[string]string
	}{
		{200, "", map[string]string{"Server": "nginx"}},
		{200, "x", nil},
		{204, "", nil},
		{304, "", map[string]string{"Server": "Apache"}},
		{304, "stale", nil},
		{100, "", nil},
		{301, "", map[string]string{"Server": "nginx", "Accept-Ranges": "bytes"}},
		{301, "moved", map[string]string{"Content-Type": "text/plain; charset=utf-8"}},
		{400, "bad", map[string]string{"Server": ""}},
		{401, "", nil},
		{403, "forbidden", map[string]string{"Content-Type": ""}},
		{404, "", nil},
		{500, "oops", map[string]string{"X-Powered-By": "PHP/5.3.10", "Server": "Apache/2.2.22", "Cache-Control": "max-age=300"}},
		{503, "", nil},
		{599, "unnamed", nil},
		{200, "lowercase keys", map[string]string{"server": "nginx", "x-powered-by": "Express"}},
	}
	for _, tc := range cases {
		var hs []websim.Header
		for k, v := range tc.headers {
			hs = append(hs, websim.Header{Key: k, Value: v})
		}
		got := appendResponse(nil, tc.status, pageHeaders(hs), tc.body)
		if want := oracleResponse(tc.status, "", tc.body, tc.headers); !bytes.Equal(got, want) {
			t.Errorf("status %d body %q headers %v:\n got %q\nwant %q", tc.status, tc.body, tc.headers, got, want)
		}
	}
}

// requestHeads are the raw requests this package's tests and
// internal/faults' send, the fetcher's shapes, and the edges of what
// parseHead accepts — each with the answer it must give. They seed
// FuzzRequestHead.
var requestHeads = []struct {
	raw   string
	path  string // "" when parseHead must refuse
	close bool
}{
	{"GET / HTTP/1.1\r\nHost: x\r\n\r\n", "/", false},
	{"GET /robots.txt HTTP/1.1\r\nHost: x\r\n\r\n", "/robots.txt", false},
	{"GET / HTTP/1.1\r\nHost: 10.0.0.1\r\nConnection: close\r\n\r\n", "/", true},
	{"GET /robots.txt HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", "/robots.txt", true},
	{"GET /robots.txt HTTP/1.1\r\nHost: 54.1.2.3\r\nUser-Agent: WhoWas-Research-Scanner/1.0 (measurement study; contact: whowas@example.edu; opt-out honored)\r\n\r\n", "/robots.txt", false},
	{"GET /about HTTP/1.1\r\nHost: 54.1.2.3\r\nUser-Agent: WhoWas\r\nConnection: close\r\n\r\n", "/about", true},
	{"GET / HTTP/1.0\r\n\r\n", "/", true},
	{"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", "/", false},
	{"GET / HTTP/1.0\r\nconnection: foo, keep-alive\r\nConnection: close\r\n\r\n", "/", true},
	{"GET /a%20b/%7Ec?q=%zz HTTP/1.1\nHost: x\n\n", "/a b/~c", false},
	{"GET /about?x=1?y HTTP/1.1\r\nCONNECTION:\tclose \r\n\r\nGET / HTTP/1.1\r\n\r\n", "/about", true},
	{"GET /\xff HTTP/1.1\r\nConnection: clo\u017fe\r\n\r\n", "/\xff", false},
	{"THIS IS NOT HTTP\r\n\r\n", "", false},
	{"GET /bad%2 HTTP/1.1\r\n\r\n", "", false},
	{"GET http://x/ HTTP/1.1\r\n\r\n", "", false},
	{"GET * HTTP/1.1\r\n\r\n", "", false},
	{"GET / HTTP/2.0\r\n\r\n", "", false},
	{"GET  / HTTP/1.1\r\n\r\n", "", false},
	{"GET / HTTP/1.1 \r\n\r\n", "", false},
	{"GET / HTTP/1.1\r\r\n\r\n", "", false},
	{"\r\nGET / HTTP/1.1\r\n\r\n", "", false},
	{"HEAD / HTTP/1.1\r\nHost: x\r\n\r\n", "", false},
	{"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc", "", false},
	{"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n", "", false},
	{"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", "", false},
	{"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", "", false},
	{"GET / HTTP/1.1\r\nX-Folded: a\r\n b\r\n\r\n", "", false},
	{"GET / HTTP/1.1\r\n Leading: space\r\n\r\n", "", false},
	{"GET / HTTP/1.1\r\nNo colon\r\n\r\n", "", false},
	{"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n", "", false},
	{"GET / HTTP/1.1\r\n: empty\r\n\r\n", "", false},
	{"GET / HTTP/1.1\r\nX: ctl\x01\r\n\r\n", "", false},
	{"GET /\x7f HTTP/1.1\r\n\r\n", "", false},
}

func TestRequestHead(t *testing.T) {
	for _, tc := range requestHeads {
		var hr headReader
		head, err := hr.next(strings.NewReader(tc.raw))
		if err != nil {
			t.Errorf("%q: %v", tc.raw, err)
			continue
		}
		path, closeAfter, ok := parseHead(head)
		if ok != (tc.path != "") || string(path) != tc.path || closeAfter != tc.close {
			t.Errorf("parseHead(%q) = %q, %v, %v; want %q, %v", tc.raw, path, closeAfter, ok, tc.path, tc.close)
		}
	}
}

// FuzzRequestHead holds the request decoder to http.ReadRequest: a
// head it accepts, net/http accepts too, with the same path, the same
// close-after-response decision and the same number of bytes consumed
// — and fed a byte at a time it never reads past the head, so nothing
// pipelined behind one is lost or misread. The reverse does not hold,
// by design: parseHead refuses requests net/http would serve (other
// methods, absolute-form targets, folded lines) and the responder
// closes the connection on them.
func FuzzRequestHead(f *testing.F) {
	for _, tc := range requestHeads {
		f.Add([]byte(tc.raw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var hr, byByte headReader
		head, err := hr.next(bytes.NewReader(data))
		slow, slowErr := byByte.next(iotest.OneByteReader(bytes.NewReader(data)))
		if (err == nil) != (slowErr == nil) || !bytes.Equal(head, slow) {
			t.Fatalf("head %q, %v in one read; %q, %v a byte at a time", head, err, slow, slowErr)
		}
		if err != nil {
			return // no complete head within maxHeadBytes: the connection closes
		}
		if byByte.r != byByte.w {
			t.Fatalf("read %d bytes past the head of %q", byByte.w-byByte.r, data)
		}
		if rest := hr.buf[hr.r:hr.w]; !bytes.HasPrefix(data, head) || !bytes.HasPrefix(data[len(head):], rest) {
			t.Fatalf("head %q + kept %q is not a prefix of %q", head, rest, data)
		}
		path, closeAfter, ok := parseHead(bytes.Clone(head))
		if !ok {
			return
		}
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		req, err := http.ReadRequest(br)
		if err != nil {
			t.Fatalf("parseHead accepted %q, http.ReadRequest: %v", head, err)
		}
		if req.Method != http.MethodGet || string(path) != req.URL.Path || closeAfter != req.Close {
			t.Errorf("parseHead(%q) = GET %q close %v; net/http %s %q close %v",
				head, path, closeAfter, req.Method, req.URL.Path, req.Close)
		}
		if got := len(data) - src.Len() - br.Buffered(); got != len(head) {
			t.Errorf("consumed %d bytes, net/http %d for %q", len(head), got, data)
		}
	})
}

// TestOverlongHeadClosesConnection: a head that does not fit the
// reader ends the connection without an answer instead of growing it.
func TestOverlongHeadClosesConnection(t *testing.T) {
	n, cloud := testNetwork(t)
	ip := findWebIP(t, cloud, 80)
	raw := "GET / HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", 2*maxHeadBytes) + "\r\n\r\n"
	resp, _ := rawHTTP(t, n, ip, 80, raw)
	if resp != "" {
		t.Errorf("over-long head answered %.40q", resp)
	}
	if got := n.Stats().Requests.Load(); got != 0 {
		t.Errorf("Requests = %d, want 0", got)
	}
}

// TestPipelinedRequestsServedInOrder: bytes behind a head belong to
// the next request.
func TestPipelinedRequestsServedInOrder(t *testing.T) {
	n, cloud := testNetwork(t)
	ip := findWebIP(t, cloud, 80)
	raw := "GET /robots.txt HTTP/1.1\r\nHost: x\r\n\r\nGET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
	out, err := rawHTTP(t, n, ip, 80, raw)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(strings.NewReader(out))
	for i, want := range []int{200, 404} {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != want {
			t.Errorf("response %d status = %d, want %d", i, resp.StatusCode, want)
		}
	}
}

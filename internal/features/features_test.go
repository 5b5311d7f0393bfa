package features

import (
	"errors"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"testing"

	"whowas/internal/fetcher"
	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

func samplePage() *fetcher.Page {
	body := `<!DOCTYPE html>
<html><head>
<title>Acme Cloud Shop</title>
<meta name="description" content="widgets for everyone">
<meta name="keywords" content="widgets,acme">
<meta name="generator" content="WordPress 3.5.1">
<script>var _gaq=[['_setAccount','UA-55555-3']];
var s='http://www.google-analytics.com/ga.js';</script>
<script src="http://platform.twitter.com/widgets.js"></script>
</head><body>
<p>Buy <a href="http://acme.example/catalog">widgets</a></p>
<a href="http://dl.dropbox.com/s/evil">download</a>
</body></html>`
	return &fetcher.Page{
		IP:        ipaddr.MustParseAddr("54.1.2.3"),
		OpenPorts: store.PortHTTP,
		Scheme:    "http",
		Status:    200,
		Header: http.Header{
			"Server":       {"Apache/2.2.22 (Ubuntu)"},
			"X-Powered-By": {"PHP/5.3.10-1ubuntu3.9"},
			"Content-Type": {"text/html; charset=utf-8"},
			"Date":         {"Tue, 01 Oct 2013 00:00:00 GMT"},
		},
		ContentType: "text/html; charset=utf-8",
		Body:        []byte(body),
	}
}

func TestFromPageAllFeatures(t *testing.T) {
	page := samplePage()
	rec := FromPage(page)
	if rec.PoweredBy != "PHP/5.3.10-1ubuntu3.9" { // feature 1
		t.Errorf("PoweredBy = %q", rec.PoweredBy)
	}
	if rec.Description != "widgets for everyone" { // feature 2
		t.Errorf("Description = %q", rec.Description)
	}
	if rec.HeaderNames != "content-type#date#server#x-powered-by" { // feature 3
		t.Errorf("HeaderNames = %q", rec.HeaderNames)
	}
	if rec.BodyLen == 0 || rec.BodyLen != len(page.Body) { // feature 4
		t.Errorf("BodyLen = %d, body %d", rec.BodyLen, len(page.Body))
	}
	if rec.Body != "" {
		t.Errorf("record carries the body (%d bytes)", len(rec.Body))
	}
	if rec.Title != "Acme Cloud Shop" { // feature 5
		t.Errorf("Title = %q", rec.Title)
	}
	if rec.Template != "WordPress 3.5.1" { // feature 6
		t.Errorf("Template = %q", rec.Template)
	}
	if rec.Server != "Apache/2.2.22 (Ubuntu)" { // feature 7
		t.Errorf("Server = %q", rec.Server)
	}
	if rec.Keywords != "widgets,acme" { // feature 8
		t.Errorf("Keywords = %q", rec.Keywords)
	}
	if rec.AnalyticsID != "UA-55555-3" { // feature 9
		t.Errorf("AnalyticsID = %q", rec.AnalyticsID)
	}
	if rec.Simhash == simhash.Zero { // feature 10
		t.Error("Simhash is zero")
	}
	if rec.ContentType != "text/html" {
		t.Errorf("ContentType = %q", rec.ContentType)
	}
	// Links include the malicious-looking dropbox URL.
	foundDropbox := false
	for _, l := range rec.Links {
		if strings.Contains(l, "dl.dropbox.com") {
			foundDropbox = true
		}
	}
	if !foundDropbox {
		t.Errorf("Links = %v, missing dropbox URL", rec.Links)
	}
	// Trackers matched.
	wantTrackers := map[string]bool{"google-analytics": true, "twitter": true}
	for _, tr := range rec.Trackers {
		if !wantTrackers[tr] {
			t.Errorf("unexpected tracker %q", tr)
		}
		delete(wantTrackers, tr)
	}
	for tr := range wantTrackers {
		t.Errorf("missing tracker %q", tr)
	}
}

func TestFromPageEmptyBody(t *testing.T) {
	p := &fetcher.Page{IP: 1, OpenPorts: store.PortHTTP, Status: 204}
	rec := FromPage(p)
	if rec.Simhash != simhash.Zero || rec.Title != "" || rec.BodyLen != 0 {
		t.Errorf("empty-body record = %+v", rec)
	}
	if !rec.Fetched {
		t.Error("web-port page not marked fetched")
	}
}

func TestFromPageSSHOnly(t *testing.T) {
	p := &fetcher.Page{IP: 2, OpenPorts: store.PortSSH}
	rec := FromPage(p)
	if rec.Fetched {
		t.Error("SSH-only record marked fetched")
	}
	if !rec.Responsive() || rec.Available() {
		t.Error("SSH-only predicates wrong")
	}
}

func TestFromPageError(t *testing.T) {
	cases := map[string]string{
		"dial tcp 1.2.3.4:80: i/o timeout":        "timeout",
		"context deadline exceeded":               "timeout",
		"dial tcp 1.2.3.4:80: connection refused": "refused",
		"read: connection reset by peer":          "reset",
		"unexpected EOF":                          "reset",
		"something strange":                       "error",
	}
	for msg, want := range cases {
		p := &fetcher.Page{IP: 3, OpenPorts: store.PortHTTP, Err: errors.New(msg)}
		if rec := FromPage(p); rec.FetchErr != want {
			t.Errorf("classify(%q) = %q, want %q", msg, rec.FetchErr, want)
		}
	}
}

func TestHeaderNameString(t *testing.T) {
	h := map[string][]string{"B": nil, "a": nil, "C": nil}
	if got := HeaderNameString(h); got != "a#b#c" {
		t.Errorf("HeaderNameString = %q", got)
	}
	if got := HeaderNameString(nil); got != "" {
		t.Errorf("HeaderNameString(nil) = %q", got)
	}
}

// TestHeaderNameStringMatchesLowerSortJoin holds the few-allocation
// rendering to its definition — lowercase every name, sort, join —
// on random name sets that mix case, punctuation that sorts between
// the letter cases, prefixes of one another and non-ASCII names.
func TestHeaderNameStringMatchesLowerSortJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	pieces := []string{"X", "x", "-", "_", "A", "a", "Z", "[", "`", "Ä", "ß", "Σ", "K", "1", "\xff"}
	for i := 0; i < 2000; i++ {
		h := map[string][]string{}
		for n := rng.Intn(24); n > 0; n-- {
			var sb strings.Builder
			for m := 1 + rng.Intn(4); m > 0; m-- {
				sb.WriteString(pieces[rng.Intn(len(pieces))])
			}
			h[sb.String()] = nil
		}
		var names []string
		for k := range h {
			names = append(names, strings.ToLower(k))
		}
		sort.Strings(names)
		if got, want := HeaderNameString(h), strings.Join(names, "#"); got != want {
			t.Fatalf("HeaderNameString(%v) = %q, want %q", h, got, want)
		}
	}
	canonical := http.Header{"Content-Type": nil, "Server": nil, "X-Powered-By": nil, "Accept-Ranges": nil, "Content-Length": nil}
	if n := testing.AllocsPerRun(50, func() { HeaderNameString(canonical) }); n > 3 {
		t.Errorf("HeaderNameString allocates %v times, want at most 3", n)
	}
}

func TestServerFamily(t *testing.T) {
	cases := map[string]string{
		"Apache/2.2.22 (Ubuntu)":    "Apache",
		"Apache-Coyote/1.1":         "Apache",
		"nginx/1.4.1":               "nginx",
		"nginx":                     "nginx",
		"Microsoft-IIS/8.0":         "Microsoft-IIS",
		"MochiWeb/1.0 (Any of you)": "MochiWeb",
		"lighttpd/1.4.28":           "lighttpd",
		"Jetty(8.1.7.v20120910)":    "Jetty",
		"gunicorn/18.0":             "gunicorn",
		"CustomServer/9 extra":      "CustomServer",
		"":                          "",
	}
	for in, want := range cases {
		if got := ServerFamily(in); got != want {
			t.Errorf("ServerFamily(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBackendFamily(t *testing.T) {
	cases := map[string]string{
		"PHP/5.3.10-1ubuntu3.9":    "PHP",
		"ASP.NET":                  "ASP.NET",
		"Phusion Passenger 4.0.29": "Phusion Passenger",
		"Express":                  "Express",
		"Servlet/3.0":              "Servlet",
		"":                         "",
	}
	for in, want := range cases {
		if got := BackendFamily(in); got != want {
			t.Errorf("BackendFamily(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTemplateFamily(t *testing.T) {
	cases := map[string]string{
		"WordPress 3.5.1": "WordPress",
		"Joomla! 1.5 - Open Source Content Management": "Joomla!",
		"Drupal 7 (http://drupal.org)":                 "Drupal",
		"":                                             "",
	}
	for in, want := range cases {
		if got := TemplateFamily(in); got != want {
			t.Errorf("TemplateFamily(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestVersionOf(t *testing.T) {
	cases := []struct{ value, product, want string }{
		{"Apache/2.2.22 (Ubuntu)", "Apache", "2.2.22"},
		{"nginx/1.4.1", "nginx", "1.4.1"},
		{"PHP/5.3.10-1ubuntu3.9", "PHP", "5.3.10"},
		{"WordPress 3.5.1", "WordPress", "3.5.1"},
		{"Microsoft-IIS/8.0", "Microsoft-IIS", "8.0"},
		{"Apache", "Apache", ""},
		{"nginx/1.4.1", "Apache", ""},
		{"Apache-Coyote/1.1", "Apache", ""}, // different product
	}
	for _, c := range cases {
		if got := VersionOf(c.value, c.product); got != c.want {
			t.Errorf("VersionOf(%q, %q) = %q, want %q", c.value, c.product, got, c.want)
		}
	}
}

func TestMatchTrackers(t *testing.T) {
	body := `<script src="http://edge.quantserve.com/quant.js"></script>
<script src="http://b.scorecardresearch.com/beacon.js"></script>`
	got := MatchTrackers(body)
	if len(got) != 2 || got[0] != "quantserve" || got[1] != "scorecardresearch" {
		t.Errorf("MatchTrackers = %v", got)
	}
	if got := MatchTrackers("plain page"); got != nil {
		t.Errorf("MatchTrackers(plain) = %v", got)
	}
}

func BenchmarkFromPage(b *testing.B) {
	p := samplePage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromPage(p)
	}
}

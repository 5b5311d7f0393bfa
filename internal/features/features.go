// Package features implements WhoWas's feature generator (§4): after a
// round of scanning, it turns each fetched page into the ten features
// stored in the database —
//
//	(1) back-end technology from the x-powered-by header,
//	(2) the meta description,
//	(3) the sorted, "#"-joined HTTP response header-name string,
//	(4) the length of the returned body,
//	(5) the title string,
//	(6) the web template from the meta generator tag,
//	(7) the server type from the Server header,
//	(8) the meta keywords,
//	(9) any Google Analytics ID,
//	(10) a 96-bit simhash of the body —
//
// plus the absolute URLs appearing in the page (for the §8.2
// malicious-URL analysis) and third-party tracker matches (§8.3,
// Table 20). Missing features are stored as empty strings, the paper's
// "unknown".
//
// Extraction is cached per campaign: each core.ShardRunner (one per
// in-process campaign, one per fleet worker session) owns an Extractor
// that goes with it, holding up to 2^19 bodies (a 1:1 round fits) and
// cleared when full. Records hold no page: FromPage never sets Body,
// and extracted strings are copies. The package keeps no mutable state.
package features

import (
	"slices"
	"strings"
	"sync"

	"whowas/internal/fetcher"
	"whowas/internal/htmlparse"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

// FromPage builds a store.Record from a fetch outcome, extracting all
// features without a cache: it is Extractor.FromPage on a nil
// Extractor. The record's Round/Day fields are filled by the store on
// insert.
func FromPage(p *fetcher.Page) *store.Record {
	return (*Extractor)(nil).FromPage(p)
}

// Extractor is one campaign's extraction cache. Identical bodies recur
// massively across IPs and rounds (a 500-IP deployment serves one page
// for weeks), so the cache turns repeated parsing and simhashing into
// a lookup keyed by the body's hash and length. It is safe for
// concurrent use, and a nil *Extractor extracts uncached.
type Extractor struct {
	mu      sync.Mutex
	entries map[bodyKey]*extracted
	bound   int // entry count at which the cache is cleared and refilled
}

// NewExtractor returns an empty cache bounded to fit a 1:1 round
// (~267 k distinct bodies).
func NewExtractor() *Extractor {
	return &Extractor{entries: map[bodyKey]*extracted{}, bound: 1 << 19}
}

// FromPage builds a store.Record from a fetch outcome, extracting the
// body's features through the cache. The record never carries the
// body, and every string it holds owns its bytes, so no page stays
// reachable through it.
func (x *Extractor) FromPage(p *fetcher.Page) *store.Record {
	rec := &store.Record{
		IP:           p.IP,
		OpenPorts:    p.OpenPorts,
		Fetched:      p.OpenPorts&(store.PortHTTP|store.PortHTTPS) != 0,
		RobotsDenied: p.RobotsDenied,
		Scheme:       p.Scheme,
		HTTPStatus:   p.Status,
		ContentType:  normalizeContentType(p.ContentType),
		BodyLen:      len(p.Body),
	}
	if p.Err != nil {
		rec.FetchErr = classifyErr(p.Err)
	}
	if p.Header != nil {
		rec.Server = p.Header.Get("Server")
		rec.PoweredBy = p.Header.Get("X-Powered-By")
		rec.HeaderNames = HeaderNameString(p.Header)
	}
	if len(p.Body) != 0 {
		ext := x.extract(p.Body)
		rec.Title = ext.title
		rec.Description = ext.description
		rec.Keywords = ext.keywords
		rec.Template = ext.template
		rec.AnalyticsID = ext.analyticsID
		rec.Links = ext.links
		rec.Simhash = ext.simhash
		rec.Trackers = ext.trackers
	}
	return rec
}

// extracted holds the body-derived features. Its strings own their
// bytes; its slices are shared by every record of the body and must
// not be mutated by callers.
type extracted struct {
	title, description, keywords, template, analyticsID string
	links, trackers                                     []string
	simhash                                             simhash.Fingerprint
}

type bodyKey struct {
	hash uint64
	size int
}

// extract returns the body's features, from the cache when an equal
// body was seen since the cache last filled. A hit copies nothing; a
// full cache is cleared, so extraction never runs uncached for good.
func (x *Extractor) extract(body []byte) *extracted {
	if x == nil {
		return extractBody(string(body))
	}
	k := bodyKey{hash: fnv64a(body), size: len(body)}
	x.mu.Lock()
	ext, ok := x.entries[k]
	x.mu.Unlock()
	if ok {
		return ext
	}
	ext = extractBody(string(body))
	x.mu.Lock()
	defer x.mu.Unlock()
	if prev, ok := x.entries[k]; ok { // a concurrent lane got there first
		return prev
	}
	if len(x.entries) >= x.bound {
		clear(x.entries)
	}
	x.entries[k] = ext
	return ext
}

// extractBody parses and hashes one body, cloning every string it
// keeps so that none is a substring of the body.
func extractBody(body string) *extracted {
	doc := htmlparse.Parse(body)
	for i, l := range doc.Links {
		doc.Links[i] = strings.Clone(l)
	}
	return &extracted{
		title:       strings.Clone(doc.Title),
		description: strings.Clone(doc.Description),
		keywords:    strings.Clone(doc.Keywords),
		template:    strings.Clone(doc.Generator),
		analyticsID: strings.Clone(doc.AnalyticsID),
		links:       doc.Links,
		simhash:     simhash.Hash(body),
		trackers:    MatchTrackers(body),
	}
}

func fnv64a(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// HeaderNameString renders feature 3: all response header field names,
// lowered in one pass (joined by NUL, which no field name holds),
// sorted alphabetically and joined with "#".
func HeaderNameString(h map[string][]string) string {
	var stack [16]string
	names := stack[:0]
	for k := range h {
		names = append(names, k)
	}
	lowered := strings.ToLower(strings.Join(names, "\x00"))
	for i := range names {
		names[i], lowered, _ = strings.Cut(lowered, "\x00")
	}
	slices.Sort(names)
	return strings.Join(names, "#")
}

// normalizeContentType strips parameters and lowercases the media type.
func normalizeContentType(ct string) string {
	ct, _, _ = strings.Cut(ct, ";")
	return strings.ToLower(strings.TrimSpace(ct))
}

// classifyErr maps transport errors to the coarse classes stored in
// the database.
func classifyErr(err error) string {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "timeout") || strings.Contains(msg, "deadline"):
		return "timeout"
	case strings.Contains(msg, "refused"):
		return "refused"
	case strings.Contains(msg, "reset") || strings.Contains(msg, "EOF") || strings.Contains(msg, "closed"):
		return "reset"
	default:
		return "error"
	}
}

// MatchTrackers scans a page body for tracker fingerprints, returning
// matched tracker names in catalogue order. This mirrors the paper's
// fingerprint search over stored content. The catalogue is Table 20's:
// each tracker's name and the URL substring that identifies its
// tracking code, following Mayer & Mitchell as the paper's census does.
func MatchTrackers(body string) []string {
	var out []string
	for _, tf := range [...]struct{ name, url string }{
		{"google-analytics", "google-analytics.com"},
		{"facebook", "connect.facebook.net"},
		{"twitter", "platform.twitter.com"},
		{"doubleclick", "doubleclick.net"},
		{"quantserve", "quantserve.com"},
		{"scorecardresearch", "scorecardresearch.com"},
		{"imrworldwide", "imrworldwide.com"},
		{"serving-sys", "serving-sys.com"},
		{"atdmt", "atdmt.com"},
		{"yieldmanager", "yieldmanager.com"},
		{"adnxs", "adnxs.com"},
	} {
		if strings.Contains(body, tf.url) {
			out = append(out, tf.name)
		}
	}
	return out
}

// ServerFamily reduces a Server header to its product family
// ("Apache", "nginx", "Microsoft-IIS", ...), as used by the §8.3
// census. Unknown families return the first product token.
func ServerFamily(server string) string {
	return family(server, "Apache", "nginx", "Microsoft-IIS", "MochiWeb", "lighttpd", "Jetty", "gunicorn")
}

// BackendFamily reduces an X-Powered-By value to its family (PHP,
// ASP.NET, ...).
func BackendFamily(poweredBy string) string {
	if strings.HasPrefix(strings.TrimSpace(poweredBy), "Phusion") {
		return "Phusion Passenger"
	}
	return family(poweredBy, "PHP", "ASP.NET", "Express", "Servlet")
}

// TemplateFamily reduces a meta-generator value to its template family
// (WordPress, Joomla!, Drupal, ...).
func TemplateFamily(template string) string {
	return family(template, "WordPress", "Joomla!", "Drupal")
}

// family returns the first of the known families the trimmed value
// starts with, else its first product token ("" for an empty value).
func family(value string, known ...string) string {
	s := strings.TrimSpace(value)
	for _, f := range known {
		if strings.HasPrefix(s, f) {
			return f
		}
	}
	if i := strings.IndexAny(s, "/ "); i > 0 {
		return s[:i]
	}
	return s
}

// VersionOf extracts the version string following a product name, e.g.
// VersionOf("Apache/2.2.22 (Ubuntu)", "Apache") == "2.2.22". Empty when
// absent.
func VersionOf(value, product string) string {
	if !strings.HasPrefix(value, product) {
		return ""
	}
	rest := value[len(product):]
	if strings.HasPrefix(rest, "/") {
		rest = rest[1:]
	} else if strings.HasPrefix(rest, " ") {
		rest = strings.TrimLeft(rest, " ")
	} else if rest != "" && !strings.HasPrefix(rest, ".") {
		return ""
	}
	end := 0
	for end < len(rest) {
		c := rest[end]
		if (c >= '0' && c <= '9') || c == '.' {
			end++
			continue
		}
		break
	}
	return strings.Trim(rest[:end], ".")
}

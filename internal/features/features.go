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
package features

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"whowas/internal/fetcher"
	"whowas/internal/htmlparse"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

// TrackerFingerprint pairs a tracker's name with the URL substring
// that identifies its tracking code, following Mayer & Mitchell's
// catalogue as used by the paper's tracker census.
type TrackerFingerprint struct {
	Name string
	URL  string // substring matched against the page body
}

// TrackerFingerprints is the Table 20 tracker catalogue.
var TrackerFingerprints = []TrackerFingerprint{
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
}

// FromPage builds a store.Record from a fetch outcome, extracting all
// features. The record's Round/Day fields are filled by the store on
// insert.
func FromPage(p *fetcher.Page) *store.Record {
	rec := &store.Record{
		IP:           p.IP,
		OpenPorts:    p.OpenPorts,
		Fetched:      p.OpenPorts&(store.PortHTTP|store.PortHTTPS) != 0,
		RobotsDenied: p.RobotsDenied,
		Scheme:       p.Scheme,
		HTTPStatus:   p.Status,
		ContentType:  normalizeContentType(p.ContentType),
	}
	if p.Err != nil {
		rec.FetchErr = classifyErr(p.Err)
	}
	if p.Header != nil {
		rec.Server = p.Header.Get("Server")
		rec.PoweredBy = p.Header.Get("X-Powered-By")
		rec.HeaderNames = HeaderNameString(p.Header)
	}
	body := string(p.Body)
	rec.BodyLen = len(body)
	rec.Body = body
	if body != "" {
		ext := extractBody(body)
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

// extracted caches the body-derived features. Identical bodies recur
// massively across IPs and rounds (a 500-IP deployment serves one page
// for weeks), so the campaign-level cache turns repeated parsing and
// simhashing into a lookup. Cached slices are shared and must not be
// mutated by callers.
type extracted struct {
	title, description, keywords, template, analyticsID string
	links, trackers                                     []string
	simhash                                             simhash.Fingerprint
}

type bodyKey struct {
	hash uint64
	size int
}

var (
	extractCache   sync.Map // bodyKey -> *extracted
	extractEntries atomic.Int64
)

// extractCacheCap bounds the cache; past it, extraction runs uncached
// (pathological inputs only — a dual-cloud campaign stays far below).
const extractCacheCap = 1 << 18

func extractBody(body string) *extracted {
	k := bodyKey{hash: fnv64a(body), size: len(body)}
	if v, ok := extractCache.Load(k); ok {
		return v.(*extracted)
	}
	doc := htmlparse.Parse(body)
	ext := &extracted{
		title:       doc.Title,
		description: doc.Description,
		keywords:    doc.Keywords,
		template:    doc.Generator,
		analyticsID: doc.AnalyticsID,
		links:       doc.Links,
		simhash:     simhash.Hash(body),
		trackers:    MatchTrackers(body),
	}
	if extractEntries.Load() < extractCacheCap {
		if _, loaded := extractCache.LoadOrStore(k, ext); !loaded {
			extractEntries.Add(1)
		}
	}
	return ext
}

func fnv64a(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
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
// fingerprint search over stored content.
func MatchTrackers(body string) []string {
	var out []string
	for _, tf := range TrackerFingerprints {
		if strings.Contains(body, tf.URL) {
			out = append(out, tf.Name)
		}
	}
	return out
}

// ServerFamily reduces a Server header to its product family
// ("Apache", "nginx", "Microsoft-IIS", ...), as used by the §8.3
// census. Unknown families return the first product token.
func ServerFamily(server string) string {
	s := strings.TrimSpace(server)
	if s == "" {
		return ""
	}
	switch {
	case strings.HasPrefix(s, "Apache"):
		return "Apache"
	case strings.HasPrefix(s, "nginx"):
		return "nginx"
	case strings.HasPrefix(s, "Microsoft-IIS"):
		return "Microsoft-IIS"
	case strings.HasPrefix(s, "MochiWeb"):
		return "MochiWeb"
	case strings.HasPrefix(s, "lighttpd"):
		return "lighttpd"
	case strings.HasPrefix(s, "Jetty"):
		return "Jetty"
	case strings.HasPrefix(s, "gunicorn"):
		return "gunicorn"
	}
	if i := strings.IndexAny(s, "/ "); i > 0 {
		return s[:i]
	}
	return s
}

// BackendFamily reduces an X-Powered-By value to its family (PHP,
// ASP.NET, ...).
func BackendFamily(poweredBy string) string {
	s := strings.TrimSpace(poweredBy)
	if s == "" {
		return ""
	}
	switch {
	case strings.HasPrefix(s, "PHP"):
		return "PHP"
	case strings.HasPrefix(s, "ASP.NET"):
		return "ASP.NET"
	case strings.HasPrefix(s, "Phusion"):
		return "Phusion Passenger"
	case strings.HasPrefix(s, "Express"):
		return "Express"
	case strings.HasPrefix(s, "Servlet"):
		return "Servlet"
	}
	if i := strings.IndexAny(s, "/ "); i > 0 {
		return s[:i]
	}
	return s
}

// TemplateFamily reduces a meta-generator value to its template family
// (WordPress, Joomla!, Drupal, ...).
func TemplateFamily(template string) string {
	s := strings.TrimSpace(template)
	if s == "" {
		return ""
	}
	switch {
	case strings.HasPrefix(s, "WordPress"):
		return "WordPress"
	case strings.HasPrefix(s, "Joomla!"):
		return "Joomla!"
	case strings.HasPrefix(s, "Drupal"):
		return "Drupal"
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

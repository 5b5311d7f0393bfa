// Package websim generates the synthetic web content served by the
// simulated clouds. It stands in for what the real EC2/Azure tenants of
// 2013 served: pages built from a software ecosystem (web server,
// backend language, site template), decorated with third-party tracker
// snippets and Google Analytics IDs, occasionally carrying malicious
// URLs, plus the robots.txt, default server pages, and error pages the
// WhoWas fetcher encountered.
//
// Generation is deterministic: a Profile fully determines the bytes
// served for a given content revision, so repeated fetches in a round
// are stable while page updates across rounds shift simhashes exactly
// the way real page revisions do.
//
// The ecosystem distributions are calibrated to §8.3 of the paper
// (Apache 55.2% / nginx 21.2% / IIS 12.2% on EC2; IIS 89% on Azure;
// PHP 52.6% / ASP.NET 29.0% backends; WordPress 71.1% of templates;
// Table 20's tracker mix).
package websim

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// CloudKind selects the ecosystem distribution a profile draws from.
type CloudKind int

const (
	// EC2Like uses the Amazon EC2 ecosystem mix of §8.3.
	EC2Like CloudKind = iota
	// AzureLike uses the Microsoft Azure mix (IIS/ASP.NET dominated).
	AzureLike
)

func (k CloudKind) String() string {
	if k == AzureLike {
		return "azure"
	}
	return "ec2"
}

// Weighted selects among choices with integer weights using the given
// rng; weights need not sum to any particular value.
type weightedChoice struct {
	value  string
	weight int
}

func pick(rng *rand.Rand, choices []weightedChoice) string {
	total := 0
	for _, c := range choices {
		total += c.weight
	}
	if total == 0 {
		return ""
	}
	n := rng.Intn(total)
	for _, c := range choices {
		n -= c.weight
		if n < 0 {
			return c.value
		}
	}
	return choices[len(choices)-1].value
}

// Ecosystem distributions (§8.3). Version weights skew dated: the
// paper found >40% of Apache on 2.2.*, 60% of PHP on 5.3.*, >68% of
// WordPress below 3.6.
var (
	ec2Servers = []weightedChoice{
		{"Apache/2.2.22 (Ubuntu)", 246},
		{"Apache-Coyote/1.1", 150},
		{"Apache/2.2.25 (Amazon)", 76},
		{"Apache/2.2.24 (Unix) mod_ssl/2.2.24 OpenSSL/1.0.0-fips mod_auth_passthrough/2.1 mod_bwlimited/1.4 FrontPage/5.0.2.2635", 6},
		{"Apache/2.4.6 (CentOS)", 40},
		{"Apache/2.4.7 (Ubuntu)", 14},
		{"Apache/2.2.15 (CentOS)", 12},
		{"Apache/1.3.42 (Unix)", 2},
		{"Apache", 6},
		{"nginx/1.4.1", 80},
		{"nginx/1.1.19", 60},
		{"nginx/1.5.8", 40},
		{"nginx", 32},
		{"Microsoft-IIS/6.0", 18},
		{"Microsoft-IIS/7.5", 62},
		{"Microsoft-IIS/8.0", 42},
		{"MochiWeb/1.0 (Any of you quaids got a smint?)", 44},
		{"lighttpd/1.4.28", 10},
		{"Jetty(8.1.7.v20120910)", 12},
		{"gunicorn/18.0", 10},
	}
	azureServers = []weightedChoice{
		{"Microsoft-IIS/8.0", 390},
		{"Microsoft-IIS/7.5", 237},
		{"Microsoft-IIS/7.0", 198},
		{"Microsoft-IIS/8.5", 34},
		{"Microsoft-IIS/6.0", 21},
		{"Apache/2.2.22 (Ubuntu)", 48},
		{"Apache/2.4.6 (CentOS)", 18},
		{"nginx/1.4.1", 14},
		{"nginx/1.1.19", 3},
	}
	ec2Backends = []weightedChoice{
		{"PHP/5.3.10-1ubuntu3.9", 122},
		{"PHP/5.3.27", 81},
		{"PHP/5.3.3", 48},
		{"PHP/5.4.23", 17},
		{"PHP/5.4.17", 18},
		{"ASP.NET", 145},
		{"Phusion Passenger 4.0.29", 40},
		{"Express", 14},
		{"Servlet/3.0", 9},
		{"", 106}, // backend not revealed (68% of servers in the paper)
	}
	azureBackends = []weightedChoice{
		{"ASP.NET", 471},
		{"PHP/5.3.27", 14},
		{"PHP/5.4.23", 8},
		{"Express", 3},
		{"", 104},
	}
	ec2Templates = []weightedChoice{
		// WordPress skews dated: >68% of WP sites ran versions below
		// 3.6, whose XSS vulnerabilities the paper flags (§8.3).
		{"WordPress 3.5.1", 280},
		{"WordPress 3.5", 60},
		{"WordPress 3.4.2", 120},
		{"WordPress 3.3.1", 80},
		{"WordPress 3.2.1", 40},
		{"WordPress 3.6", 120},
		{"WordPress 3.7.1", 70},
		{"WordPress 3.8", 50},
		{"Joomla! 1.5 - Open Source Content Management", 56},
		{"Joomla! 2.5 - Open Source Content Management", 41},
		{"Drupal 7 (http://drupal.org)", 41},
		{"", 9151}, // no generator tag: templates identified on only ~3% of IPs
	}
	azureTemplates = []weightedChoice{
		{"WordPress 3.5.1", 22},
		{"WordPress 3.4.2", 10},
		{"WordPress 3.3.1", 6},
		{"WordPress 3.6", 10},
		{"WordPress 3.8", 7},
		{"Joomla! 2.5 - Open Source Content Management", 12},
		{"Drupal 7 (http://drupal.org)", 6},
		{"", 9927},
	}
)

// Tracker describes a third-party tracker and its fingerprint URL, as
// matched by the §8.3 tracker census.
type Tracker struct {
	Name string // short name as in Table 20
	URL  string // fingerprint URL embedded in tracking code
}

// Trackers is the tracker catalogue of Table 20, ordered by EC2
// popularity. The fingerprint URLs follow each tracker's real 2013
// tracking-code endpoint.
var Trackers = []Tracker{
	{"google-analytics", "http://www.google-analytics.com/ga.js"},
	{"facebook", "http://connect.facebook.net/en_US/all.js"},
	{"twitter", "http://platform.twitter.com/widgets.js"},
	{"doubleclick", "http://ad.doubleclick.net/adj/site"},
	{"quantserve", "http://edge.quantserve.com/quant.js"},
	{"scorecardresearch", "http://b.scorecardresearch.com/beacon.js"},
	{"imrworldwide", "http://secure-us.imrworldwide.com/v60.js"},
	{"serving-sys", "http://bs.serving-sys.com/BurstingPipe/adServer.bs"},
	{"atdmt", "http://view.atdmt.com/action/site"},
	{"yieldmanager", "http://ad.yieldmanager.com/pixel"},
	{"adnxs", "http://ib.adnxs.com/ttj"},
}

// trackerWeightsEC2/Azure approximate Table 20 relative frequencies
// (per cloud) among tracker-using sites.
var trackerWeightsEC2 = []int{1276, 241, 147, 53, 22, 15, 5, 4, 3, 2, 1}
var trackerWeightsAzure = []int{684, 161, 111, 32, 5, 4, 3, 1, 5, 0, 1}

// Category labels the kind of site a service runs; Table 15 categorizes
// the largest clusters.
type Category string

// Categories observed among the paper's large clusters plus the long
// tail of ordinary sites.
const (
	CategoryPaaS         Category = "PaaS"
	CategoryCloudHosting Category = "Cloud hosting"
	CategoryVPN          Category = "VPN"
	CategorySaaS         Category = "SaaS"
	CategoryGame         Category = "Game"
	CategoryShopping     Category = "Shopping"
	CategoryVideo        Category = "Video"
	CategoryMarketing    Category = "Marketing"
	CategoryBlog         Category = "Blog"
	CategoryCorporate    Category = "Corporate"
	CategoryDev          Category = "Dev/testing"
)

// lexicon is a broad shared vocabulary mixed into page bodies so that
// same-category services still render clearly distinct text.
var lexicon = []string{
	"welcome", "discover", "premium", "quality", "trusted", "global", "modern",
	"simple", "powerful", "flexible", "reliable", "innovative", "seamless",
	"experience", "solutions", "features", "customers", "community", "partners",
	"resources", "insights", "updates", "stories", "events", "products",
	"learn", "explore", "connect", "create", "share", "grow", "start",
	"today", "tomorrow", "journey", "vision", "mission", "values", "team",
	"world", "digital", "network", "data", "secure", "fast", "easy",
	"professional", "enterprise", "personal", "custom", "advanced", "essential",
	"complete", "integrated", "optimized", "dedicated", "exclusive", "popular",
	"latest", "official", "original", "unique", "special", "everyday",
}

var categoryWords = map[Category][]string{
	CategoryPaaS:         {"platform", "deploy", "apps", "runtime", "scale", "build"},
	CategoryCloudHosting: {"hosting", "servers", "uptime", "managed", "support", "plans"},
	CategoryVPN:          {"vpn", "privacy", "secure", "tunnel", "anonymous", "locations"},
	CategorySaaS:         {"dashboard", "analytics", "workflow", "teams", "pricing", "signup"},
	CategoryGame:         {"game", "play", "leaderboard", "players", "arena", "quest"},
	CategoryShopping:     {"shop", "cart", "deals", "checkout", "catalog", "shipping"},
	CategoryVideo:        {"video", "stream", "watch", "episodes", "channels", "live"},
	CategoryMarketing:    {"campaign", "brand", "audience", "leads", "conversion", "reach"},
	CategoryBlog:         {"blog", "posts", "archive", "comments", "subscribe", "tags"},
	CategoryCorporate:    {"company", "services", "clients", "about", "careers", "contact"},
	CategoryDev:          {"staging", "test", "demo", "sandbox", "internal", "build"},
}

// MaliciousKind is the Safe-Browsing verdict class a malicious URL
// belongs to (§8.2).
type MaliciousKind int

const (
	// NotMalicious marks clean content.
	NotMalicious MaliciousKind = iota
	// Phishing URLs imitate login/payment pages.
	Phishing
	// Malware URLs serve or link to malicious software.
	Malware
)

func (k MaliciousKind) String() string {
	switch k {
	case Phishing:
		return "phishing"
	case Malware:
		return "malware"
	default:
		return "ok"
	}
}

// Profile fully determines a service's served content. Profiles are
// value types generated once per service by the cloud simulator.
type Profile struct {
	ID            uint64 // service identifier, drives all derived names
	Cloud         CloudKind
	Category      Category
	Server        string // HTTP Server header value
	Backend       string // X-Powered-By value, "" when hidden
	Template      string // meta generator value, "" when none
	Title         string
	Keywords      string
	Description   string
	AnalyticsID   string // "" when the site uses no GA
	Trackers      []Tracker
	ContentType   string        // of the top-level page
	RobotsDeny    bool          // robots.txt disallows fetching "/"
	HTTPSOnly     bool          // page served only on 443
	StatusCode    int           // top-level response status (200, 4xx, 5xx)
	DefaultPage   bool          // serves a default server test page ("welcome-apache" style)
	MultiVhost    bool          // name-based vhost: by-IP requests get a 404 page naming the domain
	Malicious     MaliciousKind // content carries malicious URLs
	MaliciousURLs []string      // the embedded malicious URLs (ground truth)
	Domain        string        // primary domain of the service
}

// GenProfile draws a service profile for the given cloud. The rng must
// be dedicated to this call sequence (cloudsim derives one per service
// from the campaign seed).
func GenProfile(rng *rand.Rand, id uint64, cloud CloudKind, cat Category) Profile {
	p := Profile{ID: id, Cloud: cloud, Category: cat}
	servers, backends, templates := ec2Servers, ec2Backends, ec2Templates
	trackerWeights := trackerWeightsEC2
	if cloud == AzureLike {
		servers, backends, templates = azureServers, azureBackends, azureTemplates
		trackerWeights = trackerWeightsAzure
	}
	p.Server = pick(rng, servers)
	p.Backend = pick(rng, backends)
	p.Template = pick(rng, templates)
	p.Domain = genDomain(rng, id, cat)

	words := categoryWords[cat]
	if len(words) == 0 {
		words = categoryWords[CategoryCorporate]
	}
	p.Title = fmt.Sprintf("%s %s - %s", strings.Title(words[rng.Intn(len(words))]), strings.Title(words[rng.Intn(len(words))]), p.Domain)
	p.Keywords = strings.Join([]string{words[rng.Intn(len(words))], words[rng.Intn(len(words))], words[rng.Intn(len(words))]}, ",")
	p.Description = fmt.Sprintf("%s offering %s and %s for %s", p.Domain, words[rng.Intn(len(words))], words[rng.Intn(len(words))], words[rng.Intn(len(words))])

	// Content type mix per Table 5 (EC2: text/html 95.9, text/plain 2.1,
	// application/json 1.0, application/xml 0.3, text/xml 0.3, other 0.4;
	// Azure: 97.8 / 1.0 / 0.2(json) / 0.7(xml) / 0.1(xhtml) / 0.2).
	ctypes := []weightedChoice{
		{"text/html", 959}, {"text/plain", 21}, {"application/json", 10},
		{"application/xml", 3}, {"text/xml", 3}, {"text/css", 4},
	}
	if cloud == AzureLike {
		ctypes = []weightedChoice{
			{"text/html", 978}, {"text/plain", 10}, {"application/xml", 7},
			{"application/json", 2}, {"application/xhtml+xml", 1}, {"text/css", 2},
		}
	}
	p.ContentType = pick(rng, ctypes)

	// Status mix per Table 4 (fraction of responsive IPs that are
	// available, i.e. return 200): EC2 64.7 / 28.0 (4xx) / 7.2 (5xx) /
	// 0.1 other; Azure 60.6 / 30.2 / 9.2 / 0.02. Non-200 arises mostly
	// from multi-vhost hosts and misconfigured apps.
	statusMix := []weightedChoice{{"200", 647}, {"4xx", 280}, {"5xx", 72}, {"other", 1}}
	if cloud == AzureLike {
		statusMix = []weightedChoice{{"200", 606}, {"4xx", 302}, {"5xx", 92}, {"other", 1}}
	}
	switch pick(rng, statusMix) {
	case "200":
		p.StatusCode = 200
	case "4xx":
		p.StatusCode = []int{404, 403, 401, 400}[rng.Intn(4)]
		p.MultiVhost = rng.Intn(100) < 60
	case "5xx":
		p.StatusCode = []int{500, 502, 503}[rng.Intn(3)]
	default:
		p.StatusCode = 301
	}

	// Trackers: ~26% of sites use at least one (Table 20: 81 K of 186 K
	//+ clusters use GA alone); of those, 77% one tracker, 16% two, 6%
	// three, 1% four (§8.3).
	if p.StatusCode == 200 && rng.Intn(100) < 26 {
		// §8.3: 77% of tracker-using pages embed one tracker, 16% two,
		// 6% three, the rest more.
		n := 1
		switch r := rng.Intn(100); {
		case r >= 99:
			n = 4
		case r >= 93:
			n = 3
		case r >= 77:
			n = 2
		}
		p.Trackers = drawTrackers(rng, trackerWeights, n)
		for _, tr := range p.Trackers {
			if tr.Name == "google-analytics" {
				// Accounts are drawn from a bounded space so that some
				// users own several sites: colliding accounts with
				// distinct profile numbers reproduce §8.3's profile
				// distribution (93.5% of accounts with one profile,
				// 4.8% two, a tail up to 35).
				account := 100000 + rng.Intn(30000)
				profile := 1
				switch r := rng.Intn(1000); {
				case r >= 999:
					profile = 14 + rng.Intn(22)
				case r >= 983:
					profile = 3 + rng.Intn(9)
				case r >= 935:
					profile = 2
				}
				p.AnalyticsID = fmt.Sprintf("UA-%d-%d", account, profile)
			}
		}
	}

	// ~3% of sites deny robots on "/" (opt-outs observed by the paper
	// were handled via robots exclusion).
	p.RobotsDeny = rng.Intn(1000) < 30
	// A handful of sites are HTTPS-only; Table 3 says 5.5% of EC2
	// responsive IPs (16.5% Azure) open only 443.
	// (Port openness itself is decided by cloudsim; this flag makes the
	// content consistent.)
	p.HTTPSOnly = false

	// Default server pages: sites that answer with the stock Apache/IIS
	// test page. These form the large default-page clusters the paper
	// removes during cleaning.
	if p.StatusCode == 200 && p.Template == "" && rng.Intn(100) < 6 {
		p.DefaultPage = true
		p.Trackers = nil
		p.AnalyticsID = ""
	}
	return p
}

func drawTrackers(rng *rand.Rand, weights []int, n int) []Tracker {
	var out []Tracker
	remaining := make([]weightedChoice, len(Trackers))
	for i, t := range Trackers {
		w := 0
		if i < len(weights) {
			w = weights[i]
		}
		remaining[i] = weightedChoice{value: t.Name, weight: w}
	}
	byName := map[string]Tracker{}
	for _, t := range Trackers {
		byName[t.Name] = t
	}
	for len(out) < n {
		name := pick(rng, remaining)
		if name == "" {
			break
		}
		out = append(out, byName[name])
		for i := range remaining {
			if remaining[i].value == name {
				remaining[i].weight = 0
			}
		}
	}
	return out
}

func genDomain(rng *rand.Rand, id uint64, cat Category) string {
	words := categoryWords[cat]
	if len(words) == 0 {
		words = categoryWords[CategoryCorporate]
	}
	tlds := []string{"com", "com", "com", "net", "org", "io", "co"}
	return fmt.Sprintf("%s%d.%s", words[rng.Intn(len(words))], id%100000, tlds[rng.Intn(len(tlds))])
}

// maliciousDomains reproduces Table 18's flavour: file-hosting and
// download-manager domains dominate malicious URLs.
var maliciousDomains = []weightedChoice{
	{"dl.dropboxusercontent.com", 993},
	{"dl.dropbox.com", 936},
	{"download-instantly.com", 295},
	{"tr.im", 268},
	{"www.wishdownload.com", 223},
	{"dlp.playmediaplayer.com", 206},
	{"www.extrimdownloadmanager.com", 128},
	{"dlp.123mediaplayer.com", 122},
	{"install.fusioninstall.com", 120},
	{"www.1disk.cn", 119},
	{"cdn.badupdates.example", 60},
	{"free-codec-pack.example", 45},
}

// MarkMalicious decorates a profile with malicious URLs of the given
// kind. count controls how many distinct URLs are embedded (linchpin
// pages carry over a hundred, §8.2).
func MarkMalicious(rng *rand.Rand, p *Profile, kind MaliciousKind, count int) {
	if kind == NotMalicious || count <= 0 {
		p.Malicious = NotMalicious
		p.MaliciousURLs = nil
		return
	}
	p.Malicious = kind
	p.MaliciousURLs = p.MaliciousURLs[:0]
	for i := 0; i < count; i++ {
		domain := pick(rng, maliciousDomains)
		path := fmt.Sprintf("s/%x/%d", rng.Uint32(), rng.Intn(10000))
		if kind == Phishing {
			path = fmt.Sprintf("login/verify/%x", rng.Uint32())
		}
		p.MaliciousURLs = append(p.MaliciousURLs, fmt.Sprintf("http://%s/%s", domain, path))
	}
}

// RobotsTxt returns the robots.txt body for the profile.
func (p *Profile) RobotsTxt() string {
	if p.RobotsDeny {
		return "User-agent: *\nDisallow: /\n"
	}
	return "User-agent: *\nDisallow: /admin/\nAllow: /\n"
}

// Header is one HTTP response header field.
type Header struct{ Key, Value string }

// AppendHeaders appends the HTTP response headers for the top-level
// page to dst, keys in canonical form. Header-name variety matters:
// WhoWas's feature 3 is the sorted header name string, used in level-1
// clustering indirectly via server and in the stored record.
func (p *Profile) AppendHeaders(dst []Header, revision int) []Header {
	dst = append(dst, Header{"Content-Type", p.ContentType + "; charset=utf-8"}, Header{"Server", p.Server})
	if p.Backend != "" {
		dst = append(dst, Header{"X-Powered-By", p.Backend})
	}
	if strings.Contains(p.Server, "nginx") || strings.Contains(p.Server, "Apache") {
		dst = append(dst, Header{"Accept-Ranges", "bytes"})
	}
	if p.StatusCode == 200 && revision%2 == 0 {
		dst = append(dst, Header{"Cache-Control", "max-age=300"})
	}
	return dst
}

// RenderPage produces the page body for a content revision. Revisions
// model ordinary site updates: most of the page is stable, a revision
// counter and a few rotating words change, which moves the simhash a
// small Hamming distance — exactly the near-duplicate relation the
// clustering must tolerate.
func (p *Profile) RenderPage(revision int) string {
	switch {
	case p.MultiVhost && p.StatusCode != 200:
		return p.renderVhost404()
	case p.StatusCode >= 500:
		return p.renderError("500 Internal Server Error", "The server encountered an internal error")
	case p.StatusCode == 404:
		return p.renderError("404 Not Found", "The requested URL / was not found on this server")
	case p.StatusCode == 403:
		return p.renderError("403 Forbidden", "You don't have permission to access / on this server")
	case p.StatusCode == 401:
		return p.renderError("401 Unauthorized", "Authorization required")
	case p.StatusCode == 400:
		return p.renderError("400 Bad Request", "Your browser sent a request that this server could not understand")
	case p.StatusCode == 301:
		return p.renderError("301 Moved Permanently", "The document has moved")
	case p.DefaultPage:
		return p.renderDefaultPage()
	}
	switch p.ContentType {
	case "text/plain":
		return fmt.Sprintf("%s\nstatus: ok\nrevision: %d\n", p.Domain, revision)
	case "application/json":
		return fmt.Sprintf(`{"service":"%s","status":"ok","revision":%d,"category":"%s"}`, p.Domain, revision, p.Category)
	case "application/xml", "text/xml":
		return fmt.Sprintf("<?xml version=\"1.0\"?><service><name>%s</name><revision>%d</revision></service>", p.Domain, revision)
	case "text/css":
		return fmt.Sprintf("/* %s stylesheet r%d */ body { margin: 0; }", p.Domain, revision)
	}
	return p.renderHTML(revision)
}

// renderHTML costs one allocation: a presized builder, and no fmt.
func (p *Profile) renderHTML(revision int) string {
	var sb strings.Builder
	sb.Grow(2048)
	put := func(parts ...string) {
		for _, s := range parts {
			sb.WriteString(s)
		}
	}
	words := categoryWords[p.Category]
	if len(words) == 0 {
		words = categoryWords[CategoryCorporate]
	}
	put("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<title>", p.Title, "</title>\n",
		"<meta name=\"description\" content=\"", p.Description, "\">\n",
		"<meta name=\"keywords\" content=\"", p.Keywords, "\">\n")
	if p.Template != "" {
		put("<meta name=\"generator\" content=\"", p.Template, "\">\n")
	}
	for _, tr := range p.Trackers {
		if tr.Name == "google-analytics" && p.AnalyticsID != "" {
			put("<script>var _gaq=_gaq||[];_gaq.push(['_setAccount','", p.AnalyticsID, "']);",
				"(function(){var ga=document.createElement('script');ga.src='", tr.URL, "';})();</script>\n")
		} else {
			put("<script src=\"", tr.URL, "\"></script>\n")
		}
	}
	put("</head>\n<body>\n<h1>", p.Title, "</h1>\n")
	// Stable body paragraphs derived from the profile id. Half the
	// words come from a broad shared lexicon so that two services of
	// the same category still have clearly distinct bodies (and thus
	// distant simhashes), as real sites do.
	seed := p.ID*0x9e3779b97f4a7c15 + 0x3c6ef372fe94f82a
	for para := 0; para < 5; para++ {
		put("<p>", p.Domain, " section ", strconv.Itoa(para), ": ")
		for w := 0; w < 24; w++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			if w%2 == 0 {
				sb.WriteString(lexicon[int(seed>>33)%len(lexicon)])
			} else {
				sb.WriteString(words[int(seed>>33)%len(words)])
			}
			sb.WriteByte(' ')
		}
		sb.WriteString("</p>\n")
	}
	// Revision-dependent fragment: small, so simhash moves a few bits.
	put("<p>updated build ", strconv.Itoa(revision), " season ", []string{"spring", "summer", "autumn", "winter"}[revision%4], "</p>\n")
	for i, u := range p.MaliciousURLs {
		put("<a href=\"", u, "\">download ", strconv.Itoa(i), "</a>\n")
	}
	put("<a href=\"http://", p.Domain, "/about\">About</a> <a href=\"http://", p.Domain, "/contact\">Contact</a>\n",
		"</body>\n</html>\n")
	return sb.String()
}

func (p *Profile) renderVhost404() string {
	return fmt.Sprintf(`<!DOCTYPE html>
<html><head><title>404 Not Found</title></head>
<body><h1>Not Found</h1>
<p>The requested site was not found on this server. If you are the
administrator of %s, check your virtual host configuration.</p>
<hr><address>%s</address>
</body></html>
`, p.Domain, p.Server)
}

func (p *Profile) renderError(title, message string) string {
	return fmt.Sprintf(`<!DOCTYPE html>
<html><head><title>%s</title></head>
<body><h1>%s</h1><p>%s.</p><hr><address>%s</address></body></html>
`, title, title, message, p.Server)
}

func (p *Profile) renderDefaultPage() string {
	switch {
	case strings.Contains(p.Server, "Apache"):
		return `<html><head><title>Welcome-Apache</title></head>
<body><h1>It works!</h1>
<p>This is the default web page for this server.</p>
<p>The web server software is running but no content has been added, yet.</p>
</body></html>
`
	case strings.Contains(p.Server, "nginx"):
		return `<html><head><title>Welcome to nginx!</title></head>
<body><h1>Welcome to nginx!</h1>
<p>If you see this page, the nginx web server is successfully installed and working.</p>
</body></html>
`
	case strings.Contains(p.Server, "IIS"):
		return `<html><head><title>IIS Windows Server</title></head>
<body><div><img src="http://127.0.0.1/iis-85.png" alt="IIS"></div></body></html>
`
	default:
		return `<html><head><title>Test Page</title></head>
<body><h1>Test Page</h1><p>This server is up.</p></body></html>
`
	}
}

// Package blacklist simulates the two threat-intelligence feeds the
// paper joins WhoWas data against in §8.2: a Google-Safe-Browsing-like
// URL lookup service and a VirusTotal-like multi-engine IP report
// aggregator.
//
// Both feeds are built from the cloud simulator's malicious ground
// truth, with per-URL/per-engine detection lag so the paper's lag-time
// analysis (Figure 19) has something real to measure: blacklists see a
// malicious page some days after it goes up, and keep reporting it for
// a while after it goes down.
package blacklist

import (
	"net/url"
	"sort"
	"strings"

	"whowas/internal/cloudsim"
	"whowas/internal/ipaddr"
	"whowas/internal/websim"
)

// Verdict is a Safe-Browsing lookup result.
type Verdict int

// Safe-Browsing verdicts per the API the paper used.
const (
	OK Verdict = iota
	PhishingVerdict
	MalwareVerdict
)

func (v Verdict) String() string {
	switch v {
	case PhishingVerdict:
		return "phishing"
	case MalwareVerdict:
		return "malware"
	default:
		return "ok"
	}
}

// urlRecord is the flagging window of one malicious URL.
type urlRecord struct {
	kind        websim.MaliciousKind
	flaggedFrom int // first day the feed flags the URL
	flaggedTo   int // first day the feed no longer flags it
}

// SafeBrowsing answers URL lookups with day-dependent verdicts.
type SafeBrowsing struct {
	byURL map[string]urlRecord
	// Lookups counts queries (the paper queried ~3.2M distinct URLs
	// per round).
	Lookups int64
}

// Lookup returns the verdict for a URL on a given day.
func (sb *SafeBrowsing) Lookup(rawURL string, day int) Verdict {
	sb.Lookups++
	rec, ok := sb.byURL[rawURL]
	if !ok || day < rec.flaggedFrom || day >= rec.flaggedTo {
		return OK
	}
	if rec.kind == websim.Phishing {
		return PhishingVerdict
	}
	return MalwareVerdict
}

// KnownURLs returns how many URLs the feed ever flags.
func (sb *SafeBrowsing) KnownURLs() int { return len(sb.byURL) }

// Engine names for the VirusTotal-like aggregator.
var engineNames = []string{
	"UrlHaus", "PhishGuard", "NetShield", "CleanWeb", "SiteCheck",
	"MalDomain", "ThreatSeer", "WebSentry", "DarkList", "SafeGate",
}

// Detection is one engine's record of malicious activity on an IP.
type Detection struct {
	Engine   string
	FirstDay int // first day the engine flagged the IP
	LastDay  int // last day the engine still flagged it
	URL      string
}

// Report is a VirusTotal-like IP report.
type Report struct {
	IP         ipaddr.Addr
	Detections []Detection
	// Domains is the passive-DNS section of the report.
	Domains []string
}

// Engines returns the number of distinct engines with detections.
func (r *Report) Engines() int {
	seen := map[string]bool{}
	for _, d := range r.Detections {
		seen[d.Engine] = true
	}
	return len(seen)
}

// URLs returns the distinct malicious URLs across detections.
func (r *Report) URLs() []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range r.Detections {
		if d.URL != "" && !seen[d.URL] {
			seen[d.URL] = true
			out = append(out, d.URL)
		}
	}
	sort.Strings(out)
	return out
}

// FirstDetection returns the earliest detection day, or -1.
func (r *Report) FirstDetection() int {
	first := -1
	for _, d := range r.Detections {
		if first == -1 || d.FirstDay < first {
			first = d.FirstDay
		}
	}
	return first
}

// LastDetection returns the latest detection day, or -1.
func (r *Report) LastDetection() int {
	last := -1
	for _, d := range r.Detections {
		if d.LastDay > last {
			last = d.LastDay
		}
	}
	return last
}

// VirusTotal holds per-IP reports collected after the campaign (the
// paper pulled reports in Feb 2014 covering Sep 30–Dec 31 2013).
type VirusTotal struct {
	reports map[ipaddr.Addr]*Report
}

// Report returns the report for an IP, or nil when the aggregator has
// nothing on it.
func (vt *VirusTotal) Report(ip ipaddr.Addr) *Report { return vt.reports[ip] }

// MaliciousIPs returns IPs flagged by at least minEngines engines (the
// paper uses 2 to reduce false positives).
func (vt *VirusTotal) MaliciousIPs(minEngines int) []ipaddr.Addr {
	var out []ipaddr.Addr
	for ip, r := range vt.reports {
		if r.Engines() >= minEngines {
			out = append(out, ip)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// hashDet derives deterministic per-entity draws for lags.
func hashDet(seed int64, parts ...uint64) uint64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		x ^= p
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
	}
	return x
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Feeds bundles both blacklists for one cloud.
type Feeds struct {
	SafeBrowsing *SafeBrowsing
	VirusTotal   *VirusTotal
}

// BuildFeeds constructs the blacklists from the cloud's malicious
// ground truth. Detection lags: most pages are flagged within three
// days of going up (Figure 19 left: ~90% of type 1/3 within 3 days,
// type 2 slower); delisting lags a few days behind content removal.
func BuildFeeds(cloud *cloudsim.Cloud) *Feeds {
	seed := cloud.Config().Seed
	sb := &SafeBrowsing{byURL: make(map[string]urlRecord)}
	vt := &VirusTotal{reports: make(map[ipaddr.Addr]*Report)}

	for _, svc := range cloud.MaliciousServices() {
		mb := &svc.Malicious
		// Per-URL Safe-Browsing windows.
		for _, u := range mb.AllURLs() {
			upFrom, upTo := urlActiveWindow(mb, u, cloud.Days())
			if upFrom < 0 {
				continue
			}
			lag := detectionLag(seed, mb.Type, hashString(u))
			delist := 2 + int(hashDet(seed, hashString(u), 77)%5)
			sb.byURL[u] = urlRecord{
				kind:        mb.Kind,
				flaggedFrom: upFrom + lag,
				flaggedTo:   upTo + delist,
			}
		}
		// VirusTotal engine detections per IP the service held while
		// malicious. Azure-like clouds produced no VT hits in the
		// paper; reproduce that by skipping them.
		if cloud.Config().Kind == websim.AzureLike {
			continue
		}
		holdings := cloud.Holdings(svc.ID)
		for day := mb.ActiveFrom; day < mb.ActiveTo && day < cloud.Days(); day++ {
			urls, active := mb.ActiveOn(day)
			if !active {
				continue
			}
			for _, h := range holdings {
				ip := h.Addr
				// Coverage is per-IP incomplete: aggregators see the
				// URLs and whichever addresses their crawls resolved,
				// not a deployment's full footprint. The unseen IPs
				// are exactly what the paper's co-clustering expansion
				// (+191 IPs) recovers.
				if day < h.First || day > h.Last || hashDet(seed, svc.ID, uint64(ip))%100 < 30 {
					continue
				}
				rep := vt.reports[ip]
				if rep == nil {
					rep = &Report{IP: ip}
					vt.reports[ip] = rep
				}
				recordEngines(rep, seed, svc.ID, day, urls, mb.ActiveFrom, mb.Type)
			}
		}
	}

	// Add passive-DNS domains and single-engine noise.
	if cloud.Config().Kind != websim.AzureLike {
		addNoiseReports(cloud, vt, seed)
	}
	for ip, rep := range vt.reports {
		st := cloud.StateAt(rep.FirstDetection(), ip)
		if svc := cloud.ServiceByID(st.ServiceID); svc != nil && svc.Profile.Domain != "" {
			rep.Domains = append(rep.Domains, svc.Profile.Domain)
		}
	}
	return &Feeds{SafeBrowsing: sb, VirusTotal: vt}
}

// urlActiveWindow finds the first and last day a URL is served.
func urlActiveWindow(mb *cloudsim.MaliciousBehavior, u string, days int) (from, to int) {
	from, to = -1, -1
	for d := mb.ActiveFrom; d < mb.ActiveTo && d < days; d++ {
		urls, active := mb.ActiveOn(d)
		if !active {
			continue
		}
		for _, x := range urls {
			if x == u {
				if from < 0 {
					from = d
				}
				to = d + 1
			}
		}
	}
	return from, to
}

// detectionLag draws how many days pass before a blacklist first flags
// a page. Types 1 and 3 are detected fast (~90% within 3 days); the
// flickering type 2 takes longer (~50% within 3 days).
func detectionLag(seed int64, mtype int, h uint64) int {
	r := hashDet(seed, h, uint64(mtype)) % 100
	if mtype == 2 {
		switch {
		case r < 50:
			return int(hashDet(seed, h, 1) % 4) // 0-3 days
		case r < 80:
			return 4 + int(hashDet(seed, h, 2)%6)
		default:
			return 10 + int(hashDet(seed, h, 3)%15)
		}
	}
	switch {
	case r < 90:
		return int(hashDet(seed, h, 4) % 4)
	case r < 98:
		return 4 + int(hashDet(seed, h, 5)%5)
	default:
		return 9 + int(hashDet(seed, h, 6)%10)
	}
}

// recordEngines updates a report with this day's detections. Each
// malicious service is watched by 2-5 engines (deterministic per
// service); an engine first flags the page some days after it went up
// (Figure 19 left: type 1/3 are caught fast, the flickering type 2
// slower) and tracks it for a bounded window (Figure 19 right: pages —
// especially type 2 — often stay up after the last detection).
func recordEngines(rep *Report, seed int64, svcID uint64, day int, urls []string, activeFrom, mtype int) {
	nEngines := 2 + int(hashDet(seed, svcID, 11)%4)
	for e := 0; e < nEngines; e++ {
		engineIdx := int(hashDet(seed, svcID, uint64(100+e)) % uint64(len(engineNames)))
		engine := engineNames[engineIdx]
		lag := detectionLag(seed, mtype, hashDet(seed, svcID, uint64(200+e)))
		if day < activeFrom+lag { // the engine hasn't caught it yet
			continue
		}
		// Tracking window: type-2 flicker makes engines delist early;
		// steady pages are tracked much longer.
		track := 30 + int(hashDet(seed, svcID, uint64(400+e))%90)
		if mtype == 2 {
			track = 7 + int(hashDet(seed, svcID, uint64(400+e))%21)
		}
		if day > activeFrom+lag+track { // the engine stopped tracking
			continue
		}
		u := ""
		if len(urls) > 0 {
			u = urls[int(hashDet(seed, svcID, uint64(300+e))%uint64(len(urls)))]
		}
		// Find or create the engine's detection entry.
		found := false
		for i := range rep.Detections {
			if rep.Detections[i].Engine == engine && rep.Detections[i].URL == u {
				if day > rep.Detections[i].LastDay {
					rep.Detections[i].LastDay = day
				}
				if day < rep.Detections[i].FirstDay {
					rep.Detections[i].FirstDay = day
				}
				found = true
				break
			}
		}
		if !found {
			rep.Detections = append(rep.Detections, Detection{
				Engine: engine, FirstDay: day, LastDay: day, URL: u,
			})
		}
	}
}

// addNoiseReports sprinkles single-engine false positives over clean
// IPs; the analysis's >=2-engine rule must filter these out.
func addNoiseReports(cloud *cloudsim.Cloud, vt *VirusTotal, seed int64) {
	rl := cloud.Ranges()
	total := int64(rl.Total())
	n := int(total / 500) // ~0.2% of the space gets a stray report
	for i := 0; i < n; i++ {
		idx := int64(hashDet(seed, uint64(i), 999) % uint64(total))
		ip, err := rl.AtIndex(idx)
		if err != nil {
			continue
		}
		if vt.reports[ip] != nil {
			continue // don't dilute real reports
		}
		day := int(hashDet(seed, uint64(i), 1000) % uint64(cloud.Days()))
		engine := engineNames[int(hashDet(seed, uint64(i), 1001)%uint64(len(engineNames)))]
		vt.reports[ip] = &Report{
			IP: ip,
			Detections: []Detection{{
				Engine:   engine,
				FirstDay: day,
				LastDay:  day,
				URL:      "http://fp.example/" + ip.String(),
			}},
		}
	}
}

// DomainOf extracts the hostname of a URL ("" when unparsable); the
// Table 18 analysis aggregates malicious URLs by domain.
func DomainOf(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" {
		return ""
	}
	host := u.Host
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	return host
}

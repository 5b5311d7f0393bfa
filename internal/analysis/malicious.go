package analysis

import (
	"fmt"
	"sort"
	"strings"

	"whowas/internal/blacklist"
	"whowas/internal/cluster"
	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
	"whowas/internal/timeseries"
)

// SBStudy summarizes the Google-Safe-Browsing-based analysis of §8.2:
// IPs whose fetched pages contain URLs the feed labels phishing or
// malware, and how long such IPs stay malicious (Figure 16).
type SBStudy struct {
	MaliciousIPs  int
	MaliciousURLs int
	Clusters      int // distinct final clusters the malicious IPs belong to
	PhishingIPs   int
	MalwareIPs    int
	// Lifetime CDFs in days (Figure 16): all IPs, and split by
	// networking type for EC2.
	LifetimeAll, LifetimeClassic, LifetimeVPC *timeseries.CDF
}

// SafeBrowsing runs the §8.2 Safe-Browsing join: every link on every
// fetched page is checked against the feed as of the round's day.
func SafeBrowsing(st *store.Store, feed *blacklist.SafeBrowsing) SBStudy {
	type ipInfo struct {
		firstDay, lastDay int
		phishing, malware bool
		vpc               bool
		clusters          map[int64]bool
	}
	infos := map[ipaddr.Addr]*ipInfo{}
	urls := map[string]bool{}
	st.EachRound(func(round *store.Round) bool {
		day := round.Day
		round.Each(func(rec *store.Record) bool {
			var hit bool
			var phishing, malware bool
			for _, link := range rec.Links {
				switch feed.Lookup(link, day) {
				case blacklist.PhishingVerdict:
					hit, phishing = true, true
					urls[link] = true
				case blacklist.MalwareVerdict:
					hit, malware = true, true
					urls[link] = true
				}
			}
			if !hit {
				return true
			}
			info := infos[rec.IP]
			if info == nil {
				info = &ipInfo{firstDay: day, clusters: map[int64]bool{}}
				infos[rec.IP] = info
			}
			info.lastDay = day
			info.phishing = info.phishing || phishing
			info.malware = info.malware || malware
			info.vpc = info.vpc || rec.VPC
			if rec.Cluster != 0 {
				info.clusters[rec.Cluster] = true
			}
			return true
		})
		return true
	})
	out := SBStudy{MaliciousIPs: len(infos), MaliciousURLs: len(urls)}
	clusters := map[int64]bool{}
	var all, classic, vpc []float64
	for _, info := range infos {
		if info.phishing {
			out.PhishingIPs++
		}
		if info.malware {
			out.MalwareIPs++
		}
		for c := range info.clusters {
			clusters[c] = true
		}
		lifetime := float64(info.lastDay-info.firstDay) + 1
		all = append(all, lifetime)
		if info.vpc {
			vpc = append(vpc, lifetime)
		} else {
			classic = append(classic, lifetime)
		}
	}
	out.Clusters = len(clusters)
	out.LifetimeAll = timeseries.NewCDF(all)
	out.LifetimeClassic = timeseries.NewCDF(classic)
	out.LifetimeVPC = timeseries.NewCDF(vpc)
	return out
}

// Format renders the Safe-Browsing study with the Figure 16 CDF.
func (s SBStudy) Format(cloud string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Safe Browsing (%s): %d malicious IPs (%d phishing, %d malware), %d URLs, %d clusters\n",
		cloud, s.MaliciousIPs, s.PhishingIPs, s.MalwareIPs, s.MaliciousURLs, s.Clusters)
	fmt.Fprintf(&sb, "Figure 16 (%s): malicious-IP lifetime CDF (days)\n", cloud)
	for _, d := range []float64{1, 3, 7, 14, 21, 30, 45, 60, 90} {
		fmt.Fprintf(&sb, "  P(lifetime <= %3.0f) = all %.2f  classic %.2f  vpc %.2f\n",
			d, s.LifetimeAll.At(d), s.LifetimeClassic.At(d), s.LifetimeVPC.At(d))
	}
	fmt.Fprintf(&sb, "  share > 7 days: %.0f%%   share > 14 days: %.0f%%\n",
		100*(1-s.LifetimeAll.At(7)), 100*(1-s.LifetimeAll.At(14)))
	return sb.String()
}

// MonthWindow names a day range of the campaign (Table 17's columns).
type MonthWindow struct {
	Name     string
	From, To int // half-open day interval
}

// DefaultMonths reproduces the paper's Oct/Nov/Dec columns for a
// campaign starting Sep 30, 2013.
func DefaultMonths(days int) []MonthWindow {
	out := []MonthWindow{{"Oct", 1, 32}, {"Nov", 32, 62}, {"Dec", 62, 93}}
	var valid []MonthWindow
	for _, m := range out {
		if m.From < days {
			if m.To > days {
				m.To = days
			}
			valid = append(valid, m)
		}
	}
	return valid
}

// DomainCount is one row of Table 18.
type DomainCount struct {
	Domain string
	URLs   int
}

// VTBehavior classifies a malicious IP's content dynamics (§8.2).
type VTBehavior int

// Behaviour types per §8.2.
const (
	TypeUnknown VTBehavior = iota
	Type1                  // same malicious page the whole time
	Type2                  // malicious page appears and disappears
	Type3                  // multiple different malicious pages
)

// VTStudy summarizes the VirusTotal-based analysis: Table 17 (regions
// by month), Table 18 (domains), the behaviour-type split, Figure 19
// (detection lag CDFs) and the cluster-expansion count.
type VTStudy struct {
	MaliciousIPs int
	RegionMonth  map[string]map[string]int // region -> month -> count
	Months       []MonthWindow
	TopDomains   []DomainCount
	TypeCounts   map[VTBehavior]int
	// Figure 19: days from page-up to first detection (Lag) and days
	// the page stays up after the last detection (Tail), per type.
	LagCDF, TailCDF map[VTBehavior]*timeseries.CDF
	// ExpandedIPs counts additional IPs implicated via co-clustering
	// with a VT-flagged IP (the paper found 191).
	ExpandedIPs  int
	ClusteredIPs int // VT IPs that appear in a final cluster
}

// VirusTotal runs the §8.2 VirusTotal join over the store.
func VirusTotal(st *store.Store, vt *blacklist.VirusTotal, res *cluster.Result, regionOf func(ipaddr.Addr) string, months []MonthWindow, minEngines int) VTStudy {
	if minEngines <= 0 {
		minEngines = 2
	}
	ips := vt.MaliciousIPs(minEngines)
	out := VTStudy{
		MaliciousIPs: len(ips),
		RegionMonth:  map[string]map[string]int{},
		Months:       months,
		TypeCounts:   map[VTBehavior]int{},
		LagCDF:       map[VTBehavior]*timeseries.CDF{},
		TailCDF:      map[VTBehavior]*timeseries.CDF{},
	}
	domainURLs := map[string]map[string]bool{}
	lag := map[VTBehavior][]float64{}
	tail := map[VTBehavior][]float64{}
	flagged := map[ipaddr.Addr]bool{}
	clustersWithVT := map[int64]bool{}

	for _, ip := range ips {
		flagged[ip] = true
		rep := vt.Report(ip)
		// Table 17: region by month of detection activity.
		region := "unknown"
		if regionOf != nil {
			region = regionOf(ip)
		}
		if out.RegionMonth[region] == nil {
			out.RegionMonth[region] = map[string]int{}
		}
		for _, m := range months {
			if rep.FirstDetection() < m.To && rep.LastDetection() >= m.From {
				out.RegionMonth[region][m.Name]++
			}
		}
		// Table 18: URLs by domain.
		for _, u := range rep.URLs() {
			d := blacklist.DomainOf(u)
			if d == "" {
				continue
			}
			if domainURLs[d] == nil {
				domainURLs[d] = map[string]bool{}
			}
			domainURLs[d][u] = true
		}
		// Behaviour type and Figure 19, from the WhoWas history.
		hist := st.History(ip)
		vtURLs := map[string]bool{}
		for _, u := range rep.URLs() {
			vtURLs[u] = true
		}
		behavior, firstUp, lastUp := classifyBehavior(hist, vtURLs)
		if behavior == TypeUnknown {
			continue
		}
		out.TypeCounts[behavior]++
		first, last := rep.FirstDetection(), rep.LastDetection()
		if first >= 0 && firstUp >= 0 {
			l := float64(first - firstUp)
			if l < 0 {
				l = 0
			}
			lag[behavior] = append(lag[behavior], l)
		}
		if last >= 0 && lastUp >= last {
			tail[behavior] = append(tail[behavior], float64(lastUp-last))
		} else if last >= 0 && lastUp >= 0 {
			tail[behavior] = append(tail[behavior], 0)
		}
		// Which final clusters carried this IP *while it hosted the
		// malicious content*? Restricting to malicious rounds keeps a
		// later, unrelated tenant of the same address (IP churn!) from
		// implicating its whole cluster.
		counted := false
		for _, rec := range hist {
			if rec.Cluster == 0 {
				continue
			}
			hasMal := false
			for _, link := range rec.Links {
				if vtURLs[link] {
					hasMal = true
					break
				}
			}
			if hasMal {
				clustersWithVT[rec.Cluster] = true
				if !counted {
					out.ClusteredIPs++
					counted = true
				}
			}
		}
	}

	// Table 18 rows.
	for d, urls := range domainURLs {
		out.TopDomains = append(out.TopDomains, DomainCount{Domain: d, URLs: len(urls)})
	}
	sort.Slice(out.TopDomains, func(i, j int) bool {
		if out.TopDomains[i].URLs != out.TopDomains[j].URLs {
			return out.TopDomains[i].URLs > out.TopDomains[j].URLs
		}
		return out.TopDomains[i].Domain < out.TopDomains[j].Domain
	})

	for b, vs := range lag {
		out.LagCDF[b] = timeseries.NewCDF(vs)
	}
	for b, vs := range tail {
		out.TailCDF[b] = timeseries.NewCDF(vs)
	}

	// Cluster expansion: co-clustered IPs not themselves flagged.
	if res != nil {
		expanded := map[ipaddr.Addr]bool{}
		for _, c := range res.Clusters {
			if !clustersWithVT[c.ID] {
				continue
			}
			for _, m := range c.Members {
				if !flagged[m.IP] {
					expanded[m.IP] = true
				}
			}
		}
		out.ExpandedIPs = len(expanded)
	}
	return out
}

// classifyBehavior inspects an IP's record history: rounds where the
// page carries VT-known malicious URLs define the malicious window;
// gaps inside it indicate type 2, multiple distinct malicious pages
// type 3, otherwise type 1. Returns the first and last campaign days
// the page was up with malicious content (-1 when never observed).
func classifyBehavior(hist []*store.Record, vtURLs map[string]bool) (VTBehavior, int, int) {
	var malRounds []int
	var availRounds []int
	var pages []simhash.Fingerprint
	dayOfRound := map[int]int{}
	for _, rec := range hist {
		dayOfRound[rec.Round] = rec.Day
		if rec.Available() {
			availRounds = append(availRounds, rec.Round)
		}
		hasMal := false
		for _, link := range rec.Links {
			if vtURLs[link] {
				hasMal = true
				break
			}
		}
		if hasMal {
			malRounds = append(malRounds, rec.Round)
			novel := true
			for _, p := range pages {
				if simhash.Distance(p, rec.Simhash) <= 12 {
					novel = false
					break
				}
			}
			if novel {
				pages = append(pages, rec.Simhash)
			}
		}
	}
	if len(malRounds) == 0 {
		return TypeUnknown, -1, -1
	}
	firstUp := dayOfRound[malRounds[0]]
	lastUp := dayOfRound[malRounds[len(malRounds)-1]]
	if len(pages) >= 2 {
		return Type3, firstUp, lastUp
	}
	// Type 2: the page was available but non-malicious between two
	// malicious observations.
	malSet := map[int]bool{}
	for _, r := range malRounds {
		malSet[r] = true
	}
	for _, r := range availRounds {
		if r > malRounds[0] && r < malRounds[len(malRounds)-1] && !malSet[r] {
			return Type2, firstUp, lastUp
		}
	}
	return Type1, firstUp, lastUp
}

// Format renders Tables 17/18 and the Figure 19 CDFs.
func (v VTStudy) Format(cloud string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "VirusTotal (%s): %d malicious IPs (>=2 engines), %d in clusters, +%d via co-clustering\n",
		cloud, v.MaliciousIPs, v.ClusteredIPs, v.ExpandedIPs)

	fmt.Fprintf(&sb, "Table 17 (%s): malicious IPs by region and month\n", cloud)
	var regions []string
	for r := range v.RegionMonth {
		regions = append(regions, r)
	}
	sort.Slice(regions, func(i, j int) bool {
		ti, tj := regionTotal(v.RegionMonth[regions[i]]), regionTotal(v.RegionMonth[regions[j]])
		if ti != tj {
			return ti > tj
		}
		return regions[i] < regions[j]
	})
	fmt.Fprintf(&sb, "  %-16s", "Region")
	for _, m := range v.Months {
		fmt.Fprintf(&sb, " %6s", m.Name)
	}
	fmt.Fprintf(&sb, " %6s\n", "Total")
	for _, r := range regions {
		fmt.Fprintf(&sb, "  %-16s", r)
		for _, m := range v.Months {
			fmt.Fprintf(&sb, " %6d", v.RegionMonth[r][m.Name])
		}
		fmt.Fprintf(&sb, " %6d\n", regionTotal(v.RegionMonth[r]))
	}

	fmt.Fprintf(&sb, "Table 18 (%s): top domains in malicious URLs\n", cloud)
	top := v.TopDomains
	if len(top) > 10 {
		top = top[:10]
	}
	for _, d := range top {
		fmt.Fprintf(&sb, "  %-36s %5d\n", d.Domain, d.URLs)
	}

	fmt.Fprintf(&sb, "Behaviour types (§8.2): type1 %d  type2 %d  type3 %d\n",
		v.TypeCounts[Type1], v.TypeCounts[Type2], v.TypeCounts[Type3])

	fmt.Fprintf(&sb, "Figure 19 (%s): detection lag CDFs (days)\n", cloud)
	for _, b := range []VTBehavior{Type1, Type2, Type3} {
		if cdf := v.LagCDF[b]; cdf != nil && cdf.N() > 0 {
			fmt.Fprintf(&sb, "  type%d first-detection lag:  P(<=3d)=%.2f  P(<=7d)=%.2f  P(<=14d)=%.2f  (n=%d)\n",
				b, cdf.At(3), cdf.At(7), cdf.At(14), cdf.N())
		}
	}
	for _, b := range []VTBehavior{Type1, Type2, Type3} {
		if cdf := v.TailCDF[b]; cdf != nil && cdf.N() > 0 {
			fmt.Fprintf(&sb, "  type%d active-after-last-det: P(0d)=%.2f  P(<=3d)=%.2f  P(<=7d)=%.2f  (n=%d)\n",
				b, cdf.At(0), cdf.At(3), cdf.At(7), cdf.N())
		}
	}
	return sb.String()
}

func regionTotal(m map[string]int) int {
	t := 0
	for _, n := range m {
		t += n
	}
	return t
}

package analysis

import (
	"fmt"
	"sort"
	"strings"

	"whowas/internal/features"
	"whowas/internal/htmlparse"
	"whowas/internal/store"
)

// Share is a generic (name, fraction) row, averaged across rounds.
type Share struct {
	Name  string
	Share float64
	Count float64 // average count per round
}

// CensusResult is the §8.3 software census: servers, backends, and
// templates identified on available IPs, with version breakdowns for
// the headline products.
type CensusResult struct {
	// IdentifiedServerFrac is the share of available IPs revealing a
	// Server header (89.9% on EC2).
	IdentifiedServerFrac  float64
	ServerFamilies        []Share // of identified servers
	IdentifiedBackendFrac float64 // share of available IPs with x-powered-by
	BackendFamilies       []Share // of identified backends
	TemplateFrac          float64 // share of available IPs with a template
	TemplateFamilies      []Share // of identified templates
	ApacheVersions        []Share // of Apache servers
	PHPVersions           []Share // of PHP backends
	IISVersions           []Share // of IIS servers
	WordPressVersions     []Share // of WordPress templates
	// VulnerableWordPress is the share of WordPress sites below 3.6
	// (the XSS-vulnerable versions the paper flags; >68% on EC2).
	VulnerableWordPress float64
}

// shareCounter accumulates per-round fractions.
type shareCounter struct {
	rounds int
	counts map[string]float64 // summed per-round counts
	total  float64            // summed per-round denominators
}

func newShareCounter() *shareCounter {
	return &shareCounter{counts: map[string]float64{}}
}

func (s *shareCounter) addRound(counts map[string]int) {
	s.rounds++
	var tot int
	for _, n := range counts {
		tot += n
	}
	s.total += float64(tot)
	for k, n := range counts {
		s.counts[k] += float64(n)
	}
}

func (s *shareCounter) shares() []Share {
	out := make([]Share, 0, len(s.counts))
	for k, n := range s.counts {
		sh := Share{Name: k, Count: n / float64(max(s.rounds, 1))}
		if s.total > 0 {
			sh.Share = n / s.total
		}
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Census computes the §8.3 software ecosystem census over all rounds.
func Census(st *store.Store) CensusResult {
	servers := newShareCounter()
	backends := newShareCounter()
	templates := newShareCounter()
	apacheV := newShareCounter()
	phpV := newShareCounter()
	iisV := newShareCounter()
	wpV := newShareCounter()
	var availSum, serverSum, backendSum, templateSum float64
	var wpTotal, wpVulnerable float64

	st.Scan(store.FieldStatus|store.FieldServer|store.FieldPoweredBy|store.FieldTemplate, func(r *store.Round) bool {
		sc := map[string]int{}
		bc := map[string]int{}
		tc := map[string]int{}
		av := map[string]int{}
		pv := map[string]int{}
		iv := map[string]int{}
		wv := map[string]int{}
		var avail, withServer, withBackend, withTemplate float64
		r.Each(func(rec *store.Record) bool {
			if !rec.Available() {
				return true
			}
			avail++
			if rec.Server != "" {
				withServer++
				fam := features.ServerFamily(rec.Server)
				sc[fam]++
				switch fam {
				case "Apache":
					if v := features.VersionOf(rec.Server, "Apache"); v != "" {
						av["Apache/"+v]++
					}
				case "Microsoft-IIS":
					if v := features.VersionOf(rec.Server, "Microsoft-IIS"); v != "" {
						iv["IIS/"+v]++
					}
				}
			}
			if rec.PoweredBy != "" {
				withBackend++
				fam := features.BackendFamily(rec.PoweredBy)
				bc[fam]++
				if fam == "PHP" {
					if v := features.VersionOf(rec.PoweredBy, "PHP"); v != "" {
						pv["PHP/"+v]++
					}
				}
			}
			if rec.Template != "" {
				withTemplate++
				fam := features.TemplateFamily(rec.Template)
				tc[fam]++
				if fam == "WordPress" {
					wpTotal++
					if v := features.VersionOf(rec.Template, "WordPress"); v != "" {
						wv["WordPress/"+v]++
						if versionBelow(v, 3, 6) {
							wpVulnerable++
						}
					}
				}
			}
			return true
		})
		availSum += avail
		serverSum += withServer
		backendSum += withBackend
		templateSum += withTemplate
		servers.addRound(sc)
		backends.addRound(bc)
		templates.addRound(tc)
		apacheV.addRound(av)
		phpV.addRound(pv)
		iisV.addRound(iv)
		wpV.addRound(wv)
		return true
	})

	out := CensusResult{
		ServerFamilies:    servers.shares(),
		BackendFamilies:   backends.shares(),
		TemplateFamilies:  templates.shares(),
		ApacheVersions:    apacheV.shares(),
		PHPVersions:       phpV.shares(),
		IISVersions:       iisV.shares(),
		WordPressVersions: wpV.shares(),
	}
	if availSum > 0 {
		out.IdentifiedServerFrac = serverSum / availSum
		out.IdentifiedBackendFrac = backendSum / availSum
		out.TemplateFrac = templateSum / availSum
	}
	if wpTotal > 0 {
		out.VulnerableWordPress = wpVulnerable / wpTotal
	}
	return out
}

// versionBelow reports whether "a.b.c" sorts below major.minor.
func versionBelow(v string, major, minor int) bool {
	var a, b int
	fmt.Sscanf(v, "%d.%d", &a, &b)
	if a != major {
		return a < major
	}
	return b < minor
}

// Format renders the census.
func (c CensusResult) Format(cloud string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "§8.3 census (%s): server identified on %.1f%% of available IPs, backend on %.1f%%, template on %.1f%%\n",
		cloud, 100*c.IdentifiedServerFrac, 100*c.IdentifiedBackendFrac, 100*c.TemplateFrac)
	printShares := func(title string, shares []Share, topN int) {
		fmt.Fprintf(&sb, "  %s:\n", title)
		if len(shares) > topN {
			shares = shares[:topN]
		}
		for _, s := range shares {
			fmt.Fprintf(&sb, "    %-36s %5.1f%% (avg %.0f/round)\n", s.Name, 100*s.Share, s.Count)
		}
	}
	printShares("servers", c.ServerFamilies, 8)
	printShares("backends", c.BackendFamilies, 6)
	printShares("templates", c.TemplateFamilies, 5)
	printShares("Apache versions", c.ApacheVersions, 6)
	printShares("PHP versions", c.PHPVersions, 6)
	printShares("IIS versions", c.IISVersions, 5)
	printShares("WordPress versions", c.WordPressVersions, 6)
	fmt.Fprintf(&sb, "  WordPress below 3.6 (vulnerable): %.1f%%\n", 100*c.VulnerableWordPress)
	return sb.String()
}

// TrackerRow is one row of Table 20.
type TrackerRow struct {
	Tracker  string
	IPs      int
	Clusters int
}

// TrackerStudy is Table 20 plus the §8.3 tracker-count and Google
// Analytics account statistics.
type TrackerStudy struct {
	Rows  []TrackerRow // final-round tracker usage, descending by IPs
	Round int          // the round measured (the paper uses the last)
	// Multi-tracker mix among tracker-using pages.
	OneTracker, TwoTrackers, ThreeTrackers float64
	// Google Analytics accounting (§8.3).
	UniqueGAIDs    int
	GAAccounts     int
	OneProfileFrac float64 // accounts with a single profile
	TwoProfileFrac float64
}

// Trackers computes Table 20 on the last round, and GA statistics over
// the whole campaign, in one pass.
func Trackers(st *store.Store) TrackerStudy {
	out := TrackerStudy{}
	ids := map[string]bool{}
	accounts := map[string]map[string]bool{} // account -> profiles
	// The table is tallied as the scan passes the last round: no
	// scanned round outlives the scan.
	if out.Round = st.NumRounds() - 1; out.Round < 0 {
		return TrackerStudy{}
	}
	ipCounts := map[string]int{}
	clusterSets := map[string]map[int64]bool{}
	var one, two, three, users float64
	st.Scan(store.FieldTrackers|store.FieldCluster|store.FieldAnalyticsID, func(r *store.Round) bool {
		r.Each(func(rec *store.Record) bool {
			if rec.AnalyticsID == "" {
				return true
			}
			ids[rec.AnalyticsID] = true
			if acct, prof, ok := htmlparse.SplitAnalyticsID(rec.AnalyticsID); ok {
				if accounts[acct] == nil {
					accounts[acct] = map[string]bool{}
				}
				accounts[acct][prof] = true
			}
			return true
		})
		if r.Index != out.Round {
			return true
		}
		r.Each(func(rec *store.Record) bool {
			if len(rec.Trackers) == 0 {
				return true
			}
			users++
			switch len(rec.Trackers) {
			case 1:
				one++
			case 2:
				two++
			default:
				three++
			}
			for _, tr := range rec.Trackers {
				ipCounts[tr]++
				if rec.Cluster != 0 {
					if clusterSets[tr] == nil {
						clusterSets[tr] = map[int64]bool{}
					}
					clusterSets[tr][rec.Cluster] = true
				}
			}
			return true
		})
		return true
	})
	for tr, n := range ipCounts {
		out.Rows = append(out.Rows, TrackerRow{Tracker: tr, IPs: n, Clusters: len(clusterSets[tr])})
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		if out.Rows[i].IPs != out.Rows[j].IPs {
			return out.Rows[i].IPs > out.Rows[j].IPs
		}
		return out.Rows[i].Tracker < out.Rows[j].Tracker
	})
	if users > 0 {
		out.OneTracker = one / users
		out.TwoTrackers = two / users
		out.ThreeTrackers = three / users
	}

	out.UniqueGAIDs = len(ids)
	out.GAAccounts = len(accounts)
	var oneProf, twoProf float64
	for _, profs := range accounts {
		switch len(profs) {
		case 1:
			oneProf++
		case 2:
			twoProf++
		}
	}
	if len(accounts) > 0 {
		out.OneProfileFrac = oneProf / float64(len(accounts))
		out.TwoProfileFrac = twoProf / float64(len(accounts))
	}
	return out
}

// Format renders Table 20.
func (t TrackerStudy) Format(cloud string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 20 (%s): top third-party trackers (round %d)\n", cloud, t.Round)
	fmt.Fprintf(&sb, "  %-20s %8s %8s\n", "Tracker", "#IP", "#Clust.")
	rows := t.Rows
	if len(rows) > 10 {
		rows = rows[:10]
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-20s %8d %8d\n", r.Tracker, r.IPs, r.Clusters)
	}
	fmt.Fprintf(&sb, "  tracker mix: one %.0f%%  two %.0f%%  three+ %.0f%%\n",
		100*t.OneTracker, 100*t.TwoTrackers, 100*t.ThreeTrackers)
	fmt.Fprintf(&sb, "  GA: %d unique IDs, %d accounts (%.1f%% one profile, %.1f%% two)\n",
		t.UniqueGAIDs, t.GAAccounts, 100*t.OneProfileFrac, 100*t.TwoProfileFrac)
	return sb.String()
}

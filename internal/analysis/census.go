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

// tally counts records by name over the whole campaign.
type tally map[string]int

// shares turns the tally into shares of its total, each with its
// average count per round, largest first.
func (t tally) shares(rounds int) []Share {
	total := 0
	for _, n := range t {
		total += n
	}
	out := make([]Share, 0, len(t))
	for k, n := range t {
		sh := Share{Name: k, Count: float64(n) / float64(max(rounds, 1))}
		if total > 0 {
			sh.Share = float64(n) / float64(total)
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
// The scan counts each distinct Server, X-Powered-By and template
// string; each is then classified once, its count standing for every
// record that carried it. The counts are integers, so the shares do not
// depend on the order they are summed in.
func Census(st *store.Store) CensusResult {
	servers, backends, templates := tally{}, tally{}, tally{}
	var rounds, avail int
	st.Scan(store.FieldStatus|store.FieldServer|store.FieldPoweredBy|store.FieldTemplate, func(r *store.Round) bool {
		rounds++
		r.Each(func(rec *store.Record) bool {
			if !rec.Available() {
				return true
			}
			avail++
			if rec.Server != "" {
				servers[rec.Server]++
			}
			if rec.PoweredBy != "" {
				backends[rec.PoweredBy]++
			}
			if rec.Template != "" {
				templates[rec.Template]++
			}
			return true
		})
		return true
	})

	serverFams, backendFams, templateFams := tally{}, tally{}, tally{}
	apacheV, phpV, iisV, wpV := tally{}, tally{}, tally{}, tally{}
	var withServer, withBackend, withTemplate, wpTotal, wpVulnerable int
	for s, n := range servers {
		withServer += n
		fam := features.ServerFamily(s)
		serverFams[fam] += n
		switch fam {
		case "Apache":
			if v := features.VersionOf(s, "Apache"); v != "" {
				apacheV["Apache/"+v] += n
			}
		case "Microsoft-IIS":
			if v := features.VersionOf(s, "Microsoft-IIS"); v != "" {
				iisV["IIS/"+v] += n
			}
		}
	}
	for s, n := range backends {
		withBackend += n
		fam := features.BackendFamily(s)
		backendFams[fam] += n
		if fam == "PHP" {
			if v := features.VersionOf(s, "PHP"); v != "" {
				phpV["PHP/"+v] += n
			}
		}
	}
	for s, n := range templates {
		withTemplate += n
		fam := features.TemplateFamily(s)
		templateFams[fam] += n
		if fam == "WordPress" {
			wpTotal += n
			if v := features.VersionOf(s, "WordPress"); v != "" {
				wpV["WordPress/"+v] += n
				if versionBelow(v, 3, 6) {
					wpVulnerable += n
				}
			}
		}
	}

	out := CensusResult{
		ServerFamilies:    serverFams.shares(rounds),
		BackendFamilies:   backendFams.shares(rounds),
		TemplateFamilies:  templateFams.shares(rounds),
		ApacheVersions:    apacheV.shares(rounds),
		PHPVersions:       phpV.shares(rounds),
		IISVersions:       iisV.shares(rounds),
		WordPressVersions: wpV.shares(rounds),
	}
	if avail > 0 {
		out.IdentifiedServerFrac = float64(withServer) / float64(avail)
		out.IdentifiedBackendFrac = float64(withBackend) / float64(avail)
		out.TemplateFrac = float64(withTemplate) / float64(avail)
	}
	if wpTotal > 0 {
		out.VulnerableWordPress = float64(wpVulnerable) / float64(wpTotal)
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
// the whole campaign, in one scan; GA accounts are then split out of
// the distinct ids.
func Trackers(st *store.Store) TrackerStudy {
	out := TrackerStudy{}
	ids := map[string]bool{}
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
			if rec.AnalyticsID != "" {
				ids[rec.AnalyticsID] = true
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

	// Distinct ids are distinct (account, profile) pairs, so counting
	// each account's ids counts its profiles.
	out.UniqueGAIDs = len(ids)
	accounts := map[string]int{} // account -> profiles
	for id := range ids {
		if acct, _, ok := htmlparse.SplitAnalyticsID(id); ok {
			accounts[acct]++
		}
	}
	out.GAAccounts = len(accounts)
	var oneProf, twoProf float64
	for _, profs := range accounts {
		switch profs {
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

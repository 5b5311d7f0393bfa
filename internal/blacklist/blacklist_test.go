package blacklist

import (
	"fmt"
	"testing"

	"whowas/internal/cloudsim"
	"whowas/internal/websim"
)

func buildTestFeeds(t testing.TB, kind string) (*Feeds, *cloudsim.Cloud) {
	t.Helper()
	var cfg cloudsim.Config
	if kind == "azure" {
		cfg = cloudsim.DefaultAzureConfig(64, 31)
	} else {
		cfg = cloudsim.DefaultEC2Config(512, 31)
	}
	cloud, err := cloudsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return BuildFeeds(cloud), cloud
}

func TestSafeBrowsingFlagsKnownURLs(t *testing.T) {
	feeds, cloud := buildTestFeeds(t, "ec2")
	if feeds.SafeBrowsing.KnownURLs() == 0 {
		t.Fatal("Safe Browsing knows no URLs")
	}
	// Every malicious service URL must be flagged on some day.
	flagged := 0
	for _, svc := range cloud.MaliciousServices() {
		for _, u := range svc.Malicious.AllURLs() {
			for d := 0; d < cloud.Days(); d++ {
				if feeds.SafeBrowsing.Lookup(u, d) != OK {
					flagged++
					break
				}
			}
		}
	}
	if flagged == 0 {
		t.Error("no ground-truth URL ever flagged")
	}
}

func TestSafeBrowsingLag(t *testing.T) {
	feeds, cloud := buildTestFeeds(t, "ec2")
	// Detection must lag content: a URL must not be flagged before its
	// service first serves it.
	for _, svc := range cloud.MaliciousServices() {
		mb := &svc.Malicious
		for _, u := range mb.AllURLs() {
			first, _ := urlActiveWindow(mb, u, cloud.Days())
			if first < 0 {
				continue
			}
			for d := 0; d < first; d++ {
				if feeds.SafeBrowsing.Lookup(u, d) != OK {
					t.Fatalf("URL %q flagged on day %d, first served day %d", u, d, first)
				}
			}
		}
	}
}

func TestSafeBrowsingVerdictKinds(t *testing.T) {
	feeds, cloud := buildTestFeeds(t, "ec2")
	var sawPhishing, sawMalware bool
	for _, svc := range cloud.MaliciousServices() {
		for _, u := range svc.Malicious.AllURLs() {
			for d := 0; d < cloud.Days(); d += 3 {
				switch feeds.SafeBrowsing.Lookup(u, d) {
				case PhishingVerdict:
					sawPhishing = true
					if svc.Malicious.Kind != websim.Phishing {
						t.Fatalf("URL %q verdict phishing but service kind %v", u, svc.Malicious.Kind)
					}
				case MalwareVerdict:
					sawMalware = true
					if svc.Malicious.Kind != websim.Malware {
						t.Fatalf("URL %q verdict malware but service kind %v", u, svc.Malicious.Kind)
					}
				}
			}
		}
	}
	if !sawMalware {
		t.Error("no malware verdicts")
	}
	if !sawPhishing {
		t.Error("no phishing verdicts")
	}
}

func TestSafeBrowsingUnknownURL(t *testing.T) {
	feeds, _ := buildTestFeeds(t, "ec2")
	if v := feeds.SafeBrowsing.Lookup("http://benign.example.com/", 10); v != OK {
		t.Errorf("unknown URL verdict = %v", v)
	}
}

func TestVirusTotalConsensusFiltersNoise(t *testing.T) {
	feeds, cloud := buildTestFeeds(t, "ec2")
	vt := feeds.VirusTotal
	all := vt.MaliciousIPs(0) // every reported IP
	if len(all) == 0 {
		t.Fatal("no VT reports")
	}
	consensus := vt.MaliciousIPs(2)
	if len(consensus) == 0 {
		t.Fatal("no >=2-engine malicious IPs")
	}
	if len(consensus) >= len(all) {
		t.Error("consensus rule filtered nothing; noise reports missing")
	}
	// Every consensus IP must belong to a malicious service on its
	// first-detection day (no false positives past the filter).
	for _, ip := range consensus {
		rep := vt.Report(ip)
		day := rep.FirstDetection()
		st := cloud.StateAt(day, ip)
		svc := cloud.ServiceByID(st.ServiceID)
		if svc == nil || svc.Malicious.Type == 0 {
			t.Errorf("consensus IP %s not on a malicious service on day %d", ip, day)
		}
	}
}

func TestVirusTotalReportAccessors(t *testing.T) {
	feeds, _ := buildTestFeeds(t, "ec2")
	ips := feeds.VirusTotal.MaliciousIPs(2)
	rep := feeds.VirusTotal.Report(ips[0])
	if rep == nil {
		t.Fatal("nil report for consensus IP")
	}
	if rep.Engines() < 2 {
		t.Errorf("Engines = %d", rep.Engines())
	}
	if len(rep.URLs()) == 0 {
		t.Error("no URLs in report")
	}
	if rep.FirstDetection() < 0 || rep.LastDetection() < rep.FirstDetection() {
		t.Errorf("detection window [%d,%d]", rep.FirstDetection(), rep.LastDetection())
	}
	var empty Report
	if empty.FirstDetection() != -1 || empty.LastDetection() != -1 {
		t.Error("empty report detections not -1")
	}
}

func TestAzureHasNoVTReportsOfConsensus(t *testing.T) {
	feeds, _ := buildTestFeeds(t, "azure")
	if got := feeds.VirusTotal.MaliciousIPs(2); len(got) != 0 {
		t.Errorf("Azure has %d VT consensus IPs, want 0 (paper found none)", len(got))
	}
	// Safe Browsing still sees Azure malware.
	if feeds.SafeBrowsing.KnownURLs() == 0 {
		t.Error("Azure Safe Browsing feed empty")
	}
}

func TestDetectionLagDistribution(t *testing.T) {
	// Types 1/3 should be detected faster than type 2 on average.
	var sum13, n13, sum2, n2 int
	for i := uint64(0); i < 2000; i++ {
		sum13 += detectionLag(1, 1, i)
		n13++
		sum13 += detectionLag(1, 3, i*7+3)
		n13++
		sum2 += detectionLag(1, 2, i*13+5)
		n2++
	}
	avg13 := float64(sum13) / float64(n13)
	avg2 := float64(sum2) / float64(n2)
	if avg13 >= avg2 {
		t.Errorf("type-1/3 lag %.2f not below type-2 lag %.2f", avg13, avg2)
	}
	if avg13 > 3.5 {
		t.Errorf("type-1/3 mean lag %.2f too slow (paper: ~90%% within 3 days)", avg13)
	}
}

func TestDomainOf(t *testing.T) {
	cases := map[string]string{
		"http://dl.dropbox.com/s/abc": "dl.dropbox.com",
		"https://tr.im/x":             "tr.im",
		"http://host.example:8080/p":  "host.example",
		"not a url at all ::":         "",
		"":                            "",
		"/relative/path":              "",
	}
	for in, want := range cases {
		if got := DomainOf(in); got != want {
			t.Errorf("DomainOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMaliciousDomainsSkewToFileHosting(t *testing.T) {
	feeds, _ := buildTestFeeds(t, "ec2")
	counts := map[string]int{}
	for u := range feeds.SafeBrowsing.byURL {
		counts[DomainOf(u)]++
	}
	// Table 18: dropbox domains dominate.
	dropbox := counts["dl.dropboxusercontent.com"] + counts["dl.dropbox.com"]
	if dropbox == 0 {
		t.Error("no dropbox-family malicious URLs generated")
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if frac := float64(dropbox) / float64(total); frac < 0.2 {
		t.Errorf("dropbox-family share = %.3f, want dominant (~0.5)", frac)
	}
}

// BenchmarkBuildFeeds prices building both feeds from an EC2 cloud at
// several scales, the cloud built once per scale outside the timer;
// select one scale with e.g. -bench 'BuildFeeds/1:8$'.
func BenchmarkBuildFeeds(b *testing.B) {
	for _, div := range []int{512, 128, 8} {
		var cloud *cloudsim.Cloud
		b.Run(fmt.Sprintf("1:%d", div), func(b *testing.B) {
			if cloud == nil {
				var err error
				if cloud, err = cloudsim.New(cloudsim.DefaultEC2Config(div, 31)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BuildFeeds(cloud)
			}
		})
	}
}

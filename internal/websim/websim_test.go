package websim

import (
	"math/rand"
	"strings"
	"testing"

	"whowas/internal/htmlparse"
	"whowas/internal/simhash"
)

func genN(t *testing.T, cloud CloudKind, n int) []Profile {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	out := make([]Profile, n)
	cats := []Category{CategoryBlog, CategoryCorporate, CategoryShopping, CategorySaaS, CategoryDev}
	for i := range out {
		out[i] = GenProfile(rng, uint64(i), cloud, cats[i%len(cats)])
	}
	return out
}

func TestGenProfileDeterministic(t *testing.T) {
	a := GenProfile(rand.New(rand.NewSource(7)), 1, EC2Like, CategoryBlog)
	b := GenProfile(rand.New(rand.NewSource(7)), 1, EC2Like, CategoryBlog)
	if a.Server != b.Server || a.Title != b.Title || a.AnalyticsID != b.AnalyticsID || a.StatusCode != b.StatusCode {
		t.Errorf("profiles differ under identical seeds:\n%+v\n%+v", a, b)
	}
}

func TestEC2ServerMix(t *testing.T) {
	profiles := genN(t, EC2Like, 5000)
	counts := map[string]int{}
	for _, p := range profiles {
		switch {
		case strings.Contains(p.Server, "Apache"):
			counts["apache"]++
		case strings.Contains(p.Server, "nginx"):
			counts["nginx"]++
		case strings.Contains(p.Server, "IIS"):
			counts["iis"]++
		}
	}
	apache := float64(counts["apache"]) / 5000
	nginx := float64(counts["nginx"]) / 5000
	iis := float64(counts["iis"]) / 5000
	// Paper: Apache 55.2%, nginx 21.2%, IIS 12.2% (of identified); allow slack.
	if apache < 0.45 || apache > 0.65 {
		t.Errorf("EC2 Apache share = %.3f, want ~0.55", apache)
	}
	if nginx < 0.13 || nginx > 0.30 {
		t.Errorf("EC2 nginx share = %.3f, want ~0.21", nginx)
	}
	if iis < 0.06 || iis > 0.20 {
		t.Errorf("EC2 IIS share = %.3f, want ~0.12", iis)
	}
	if apache <= nginx || nginx <= iis {
		t.Errorf("EC2 server ordering violated: apache=%.3f nginx=%.3f iis=%.3f", apache, nginx, iis)
	}
}

func TestAzureIISDominance(t *testing.T) {
	profiles := genN(t, AzureLike, 3000)
	iis := 0
	for _, p := range profiles {
		if strings.Contains(p.Server, "IIS") {
			iis++
		}
	}
	share := float64(iis) / 3000
	if share < 0.80 || share > 0.95 {
		t.Errorf("Azure IIS share = %.3f, want ~0.89", share)
	}
}

func TestStatusMix(t *testing.T) {
	profiles := genN(t, EC2Like, 5000)
	var ok200, c4xx, c5xx int
	for _, p := range profiles {
		switch {
		case p.StatusCode == 200:
			ok200++
		case p.StatusCode >= 400 && p.StatusCode < 500:
			c4xx++
		case p.StatusCode >= 500:
			c5xx++
		}
	}
	f200 := float64(ok200) / 5000
	if f200 < 0.58 || f200 > 0.72 {
		t.Errorf("EC2 200 share = %.3f, want ~0.647", f200)
	}
	if c4xx <= c5xx {
		t.Errorf("4xx (%d) should dominate 5xx (%d)", c4xx, c5xx)
	}
}

func TestContentTypeMix(t *testing.T) {
	profiles := genN(t, EC2Like, 5000)
	html := 0
	for _, p := range profiles {
		if p.ContentType == "text/html" {
			html++
		}
	}
	share := float64(html) / 5000
	if share < 0.93 || share > 0.99 {
		t.Errorf("text/html share = %.3f, want ~0.959", share)
	}
}

func TestRenderedPageParsesBack(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		p := GenProfile(rng, uint64(i), EC2Like, CategoryShopping)
		if p.StatusCode != 200 || p.ContentType != "text/html" || p.DefaultPage {
			continue
		}
		doc := htmlparse.Parse(p.RenderPage(0))
		if doc.Title != p.Title {
			t.Errorf("profile %d: parsed title %q != %q", i, doc.Title, p.Title)
		}
		if doc.Generator != p.Template {
			t.Errorf("profile %d: parsed generator %q != %q", i, doc.Generator, p.Template)
		}
		if doc.AnalyticsID != p.AnalyticsID {
			t.Errorf("profile %d: parsed GA %q != %q", i, doc.AnalyticsID, p.AnalyticsID)
		}
		if doc.Keywords != p.Keywords {
			t.Errorf("profile %d: parsed keywords %q != %q", i, doc.Keywords, p.Keywords)
		}
	}
}

func TestRevisionsMoveSimhashSlightly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var p Profile
	for {
		p = GenProfile(rng, 11, EC2Like, CategoryBlog)
		if p.StatusCode == 200 && p.ContentType == "text/html" && !p.DefaultPage {
			break
		}
	}
	h0 := simhash.Hash(p.RenderPage(0))
	h1 := simhash.Hash(p.RenderPage(1))
	hSame := simhash.Hash(p.RenderPage(0))
	if d := simhash.Distance(h0, hSame); d != 0 {
		t.Errorf("same revision hash distance = %d", d)
	}
	if d := simhash.Distance(h0, h1); d == 0 || d > 12 {
		t.Errorf("adjacent revision distance = %d, want small nonzero", d)
	}
}

func TestDistinctServicesFarApart(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pages []string
	for i := 0; len(pages) < 20; i++ {
		p := GenProfile(rng, uint64(1000+i), EC2Like, Category([]Category{CategoryBlog, CategoryGame, CategoryVideo}[i%3]))
		if p.StatusCode == 200 && p.ContentType == "text/html" && !p.DefaultPage {
			pages = append(pages, p.RenderPage(0))
		}
	}
	for i := 0; i < len(pages); i++ {
		for j := i + 1; j < len(pages); j++ {
			d := simhash.Distance(simhash.Hash(pages[i]), simhash.Hash(pages[j]))
			if d < 8 {
				t.Errorf("distinct services %d,%d at simhash distance %d", i, j, d)
			}
		}
	}
}

func TestMarkMalicious(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := GenProfile(rng, 77, EC2Like, CategoryDev)
	p.StatusCode = 200
	p.ContentType = "text/html"
	p.DefaultPage = false
	MarkMalicious(rng, &p, Malware, 5)
	if p.Malicious != Malware || len(p.MaliciousURLs) != 5 {
		t.Fatalf("MarkMalicious: kind=%v urls=%d", p.Malicious, len(p.MaliciousURLs))
	}
	doc := htmlparse.Parse(p.RenderPage(0))
	found := 0
	linkSet := map[string]bool{}
	for _, l := range doc.Links {
		linkSet[l] = true
	}
	for _, u := range p.MaliciousURLs {
		if linkSet[u] {
			found++
		}
	}
	if found != 5 {
		t.Errorf("only %d/5 malicious URLs present in rendered page", found)
	}
	// Clearing works.
	MarkMalicious(rng, &p, NotMalicious, 3)
	if p.Malicious != NotMalicious || p.MaliciousURLs != nil {
		t.Error("MarkMalicious(NotMalicious) did not clear")
	}
}

func TestRobotsTxt(t *testing.T) {
	p := Profile{RobotsDeny: true}
	if !strings.Contains(p.RobotsTxt(), "Disallow: /\n") {
		t.Error("deny profile robots.txt missing global disallow")
	}
	p.RobotsDeny = false
	if strings.Contains(p.RobotsTxt(), "Disallow: /\n") {
		t.Error("allow profile robots.txt has global disallow")
	}
}

func TestHeaders(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := GenProfile(rng, 5, EC2Like, CategoryBlog)
	h := map[string]string{}
	for _, f := range p.AppendHeaders(nil, 0) {
		h[f.Key] = f.Value
	}
	if h["Server"] != p.Server {
		t.Errorf("Server header = %q", h["Server"])
	}
	if !strings.HasPrefix(h["Content-Type"], p.ContentType) {
		t.Errorf("Content-Type = %q", h["Content-Type"])
	}
	if p.Backend != "" && h["X-Powered-By"] != p.Backend {
		t.Errorf("X-Powered-By = %q, want %q", h["X-Powered-By"], p.Backend)
	}
}

func TestErrorPagesCarryServer(t *testing.T) {
	p := Profile{Server: "Apache/2.2.22 (Ubuntu)", StatusCode: 404, Domain: "x.example"}
	body := p.RenderPage(0)
	if !strings.Contains(body, "404") || !strings.Contains(body, p.Server) {
		t.Errorf("404 body missing status/server: %q", body)
	}
	p.StatusCode = 500
	if !strings.Contains(p.RenderPage(0), "500") {
		t.Error("500 body missing status")
	}
}

func TestVhost404NamesDomain(t *testing.T) {
	p := Profile{Server: "nginx/1.4.1", StatusCode: 404, MultiVhost: true, Domain: "shop77.example"}
	body := p.RenderPage(0)
	if !strings.Contains(body, p.Domain) {
		t.Error("vhost 404 does not reveal domain (needed for the paper's ownership heuristic)")
	}
}

func TestDefaultPages(t *testing.T) {
	for _, server := range []string{"Apache/2.2.22", "nginx/1.4.1", "Microsoft-IIS/8.0", "weird/1.0"} {
		p := Profile{Server: server, StatusCode: 200, DefaultPage: true, ContentType: "text/html"}
		body := p.RenderPage(0)
		if body == "" {
			t.Errorf("empty default page for %s", server)
		}
		doc := htmlparse.Parse(body)
		if doc.Title == "" {
			t.Errorf("default page for %s has no title", server)
		}
	}
}

func TestTrackersDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		p := GenProfile(rng, uint64(i), EC2Like, CategoryMarketing)
		seen := map[string]bool{}
		for _, tr := range p.Trackers {
			if seen[tr.Name] {
				t.Fatalf("duplicate tracker %q in profile %d", tr.Name, i)
			}
			seen[tr.Name] = true
		}
		if len(p.Trackers) > 4 {
			t.Fatalf("profile %d has %d trackers", i, len(p.Trackers))
		}
	}
}

func TestGoogleAnalyticsMostCommonTracker(t *testing.T) {
	profiles := genN(t, EC2Like, 8000)
	counts := map[string]int{}
	for _, p := range profiles {
		for _, tr := range p.Trackers {
			counts[tr.Name]++
		}
	}
	ga := counts["google-analytics"]
	for name, c := range counts {
		if name != "google-analytics" && c >= ga {
			t.Errorf("tracker %s (%d) outranks google-analytics (%d)", name, c, ga)
		}
	}
	if ga == 0 {
		t.Fatal("no google-analytics trackers generated")
	}
}

func TestAnalyticsIDWellFormed(t *testing.T) {
	profiles := genN(t, EC2Like, 4000)
	n := 0
	for _, p := range profiles {
		if p.AnalyticsID == "" {
			continue
		}
		n++
		if _, _, ok := htmlparse.SplitAnalyticsID(p.AnalyticsID); !ok {
			t.Errorf("malformed GA ID %q", p.AnalyticsID)
		}
	}
	if n == 0 {
		t.Fatal("no GA IDs generated")
	}
}

func TestPickRespectsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	choices := []weightedChoice{{"a", 90}, {"b", 10}}
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[pick(rng, choices)]++
	}
	fa := float64(counts["a"]) / 10000
	if fa < 0.87 || fa > 0.93 {
		t.Errorf("weight-90 choice drawn %.3f, want ~0.9", fa)
	}
	if pick(rng, nil) != "" {
		t.Error("pick(nil) != \"\"")
	}
	if pick(rng, []weightedChoice{{"x", 0}}) != "" {
		t.Error("pick with zero total weight != \"\"")
	}
}

func BenchmarkRenderPage(b *testing.B) {
	p := GenProfile(rand.New(rand.NewSource(1)), 9, EC2Like, CategoryBlog)
	p.StatusCode = 200
	p.ContentType = "text/html"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.RenderPage(i % 8)
	}
}

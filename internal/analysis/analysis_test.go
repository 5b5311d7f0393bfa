package analysis

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"whowas/internal/cluster"
	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
)

// rec builds a record with sensible defaults for analysis fixtures.
func rec(ip string, ports uint8, status int, mutate ...func(*store.Record)) *store.Record {
	r := &store.Record{
		IP:         ipaddr.MustParseAddr(ip),
		OpenPorts:  ports,
		HTTPStatus: status,
	}
	if status != 0 {
		r.ContentType = "text/html"
		r.Title = "Site " + ip
		r.Server = "nginx"
		r.Simhash = simhash.Hash("content of site " + ip)
		r.BodyLen = 100
	}
	for _, m := range mutate {
		m(r)
	}
	return r
}

// mkStore builds a store with given days and per-round record sets,
// also setting Probed.
func mkStore(t *testing.T, probed int64, days []int, rounds [][]*store.Record) *store.Store {
	t.Helper()
	s := store.New("test")
	for i, recs := range rounds {
		if _, err := s.BeginRound(days[i]); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			cp := *r
			if err := s.PutBatch([]*store.Record{&cp}); err != nil {
				t.Fatal(err)
			}
		}
		s.AddProbed(probed)
		if err := s.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestUsageSummary(t *testing.T) {
	web := uint8(store.PortHTTP)
	st := mkStore(t, 100, []int{0, 3, 6}, [][]*store.Record{
		{rec("1.0.0.1", web, 200), rec("1.0.0.2", store.PortSSH, 0)},
		{rec("1.0.0.1", web, 200), rec("1.0.0.2", store.PortSSH, 0), rec("1.0.0.3", web, 404)},
		{rec("1.0.0.1", web, 200), rec("1.0.0.3", web, 404), rec("1.0.0.4", web, 200), rec("1.0.0.5", store.PortSSH, 0)},
	})
	u := Usage(st)
	if u.Probed != 100 {
		t.Errorf("Probed = %d", u.Probed)
	}
	wantResp := []float64{2, 3, 4}
	wantAvail := []float64{1, 2, 3}
	for i := range wantResp {
		if u.RespSeries[i] != wantResp[i] || u.AvailSeries[i] != wantAvail[i] {
			t.Errorf("round %d: resp=%v avail=%v", i, u.RespSeries[i], u.AvailSeries[i])
		}
	}
	if u.Responsive.Mean != 3 || u.Responsive.Min != 2 || u.Responsive.Max != 4 {
		t.Errorf("responsive stats = %+v", u.Responsive)
	}
	if math.Abs(u.GrowthResp-1.0) > 1e-9 { // 2 -> 4
		t.Errorf("GrowthResp = %v", u.GrowthResp)
	}
	if !strings.Contains(u.Format("test"), "Table 7") {
		t.Error("Format missing header")
	}
}

func TestPortsTable3(t *testing.T) {
	st := mkStore(t, 10, []int{0}, [][]*store.Record{{
		rec("1.0.0.1", store.PortSSH, 0),
		rec("1.0.0.2", store.PortHTTP, 200),
		rec("1.0.0.3", store.PortHTTPS, 200),
		rec("1.0.0.4", store.PortHTTP|store.PortHTTPS, 200),
	}})
	p := Ports(st)
	if p.SSHOnly != 0.25 || p.HTTPOnly != 0.25 || p.HTTPSOnly != 0.25 || p.Both != 0.25 {
		t.Errorf("Ports = %+v", p)
	}
}

func TestStatusesTable4(t *testing.T) {
	web := uint8(store.PortHTTP)
	st := mkStore(t, 10, []int{0}, [][]*store.Record{{
		rec("1.0.0.1", web, 200),
		rec("1.0.0.2", web, 200),
		rec("1.0.0.3", web, 404),
		rec("1.0.0.4", web, 503),
		rec("1.0.0.5", store.PortSSH, 0), // no response: not in denominator
	}})
	s := Statuses(st)
	if s.OK200 != 0.5 || s.C4xx != 0.25 || s.C5xx != 0.25 || s.Other != 0 {
		t.Errorf("Statuses = %+v", s)
	}
}

func TestContentTypesTable5(t *testing.T) {
	web := uint8(store.PortHTTP)
	st := mkStore(t, 10, []int{0}, [][]*store.Record{{
		rec("1.0.0.1", web, 200, func(r *store.Record) { r.ContentType = "text/html" }),
		rec("1.0.0.2", web, 200, func(r *store.Record) { r.ContentType = "text/html" }),
		rec("1.0.0.3", web, 200, func(r *store.Record) { r.ContentType = "text/plain" }),
		rec("1.0.0.4", web, 200, func(r *store.Record) { r.ContentType = "application/json" }),
	}})
	shares := ContentTypes(st, 2)
	if shares[0].Type != "text/html" || math.Abs(shares[0].Share-0.5) > 1e-9 {
		t.Errorf("top content type = %+v", shares[0])
	}
	// topN=2 folds the rest into "other".
	if shares[len(shares)-1].Type != "other" {
		t.Errorf("missing other bucket: %+v", shares)
	}
}

func TestChurnFigure9(t *testing.T) {
	web := uint8(store.PortHTTP)
	// Round 0: A responsive+available, B responsive only, C absent.
	// Round 1: A gone (resp+avail flip), B available now (avail flip),
	//          C appears responsive (resp flip).
	st := mkStore(t, 100, []int{0, 3}, [][]*store.Record{
		{
			rec("1.0.0.1", web, 200),
			rec("1.0.0.2", store.PortSSH, 0),
		},
		{
			rec("1.0.0.2", web, 200),
			rec("1.0.0.3", store.PortSSH, 0),
		},
	})
	c := Churn(st)
	if len(c.Points) != 1 {
		t.Fatalf("points = %d", len(c.Points))
	}
	p := c.Points[0]
	// Flips: responsiveness: A (2->gone... A responsive r0, absent r1)
	// = 1 flip; C 1 flip. B stays responsive. Total resp flips = 2.
	if math.Abs(p.Responsiveness-0.02) > 1e-9 {
		t.Errorf("Responsiveness = %v, want 0.02", p.Responsiveness)
	}
	// Availability flips: A (avail->un) and B (un->avail) = 2.
	if math.Abs(p.Availability-0.02) > 1e-9 {
		t.Errorf("Availability = %v, want 0.02", p.Availability)
	}
	// Unique responsive IPs in either round: A, B, C = 3.
	if math.Abs(p.RelResponsiveness-2.0/3) > 1e-9 {
		t.Errorf("RelResponsiveness = %v", p.RelResponsiveness)
	}
}

func TestChurnClusterChange(t *testing.T) {
	web := uint8(store.PortHTTP)
	withCluster := func(id int64) func(*store.Record) {
		return func(r *store.Record) { r.Cluster = id }
	}
	st := mkStore(t, 100, []int{0, 3}, [][]*store.Record{
		{rec("1.0.0.1", web, 200, withCluster(1)), rec("1.0.0.2", web, 200, withCluster(2))},
		{rec("1.0.0.1", web, 200, withCluster(1)), rec("1.0.0.2", web, 200, withCluster(3))},
	})
	c := Churn(st)
	if math.Abs(c.Points[0].ClusterChange-0.01) > 1e-9 {
		t.Errorf("ClusterChange = %v, want 0.01", c.Points[0].ClusterChange)
	}
	// No responsiveness or availability churn in this fixture.
	if c.Points[0].Responsiveness != 0 || c.Points[0].Availability != 0 {
		t.Errorf("unexpected churn: %+v", c.Points[0])
	}
}

// clusterFixture builds a store + clustering result with two clusters:
// one stable 2-IP cluster and one flickering singleton.
func clusterFixture(t *testing.T) (*store.Store, *cluster.Result) {
	t.Helper()
	web := uint8(store.PortHTTP)
	stable := func(ip string) *store.Record {
		return rec(ip, web, 200, func(r *store.Record) {
			r.Title = "Stable"
			r.Simhash = simhash.Hash("stable cluster content shared by both addresses")
		})
	}
	flicker := func() *store.Record {
		return rec("2.0.0.1", web, 200, func(r *store.Record) {
			r.Title = "Flicker"
			r.Simhash = simhash.Hash("flickering singleton content")
		})
	}
	st := mkStore(t, 100, []int{0, 3, 6, 9}, [][]*store.Record{
		{stable("1.0.0.1"), stable("1.0.0.2"), flicker()},
		{stable("1.0.0.1"), stable("1.0.0.2")},
		{stable("1.0.0.1"), stable("1.0.0.2"), flicker()},
		{stable("1.0.0.1"), stable("1.0.0.2"), flicker()},
	})
	res, err := cluster.Run(st, cluster.Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != 2 {
		t.Fatalf("fixture clusters = %d, want 2", res.Final)
	}
	return st, res
}

func TestClusteringSummaryTable6(t *testing.T) {
	st, res := clusterFixture(t)
	sum := Clustering(st, res)
	if sum.ResponsiveIPs != 3 {
		t.Errorf("ResponsiveIPs = %d, want 3", sum.ResponsiveIPs)
	}
	if sum.Final != 2 || sum.TopLevel != 2 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.UniqueSimhashes != 2 {
		t.Errorf("UniqueSimhashes = %d, want 2", sum.UniqueSimhashes)
	}
}

func TestSizesMix(t *testing.T) {
	_, res := clusterFixture(t)
	mix := Sizes(res)
	if mix.Total != 2 {
		t.Fatalf("Total = %d", mix.Total)
	}
	if mix.Singleton != 0.5 || mix.Small != 0.5 {
		t.Errorf("mix = %+v", mix)
	}
}

func TestClusterAvailabilityFigure10(t *testing.T) {
	st, res := clusterFixture(t)
	av := ClusterAvailability(st, res)
	if len(av.Points) != 3 {
		t.Fatalf("points = %d", len(av.Points))
	}
	// Flicker cluster: present r0, absent r1, present r2, present r3:
	// flips at r1 and r2 -> 1/2 of clusters each; none at r3.
	want := []float64{0.5, 0.5, 0}
	for i, p := range av.Points {
		if math.Abs(p.Y-want[i]) > 1e-9 {
			t.Errorf("round %d change = %v, want %v", i+1, p.Y, want[i])
		}
	}
}

func TestIPUptimesFigure12(t *testing.T) {
	st, res := clusterFixture(t)
	_ = st
	u := IPUptimes(res)
	// Only the 2-IP cluster enters the CDF; both IPs present in all 4
	// of its available rounds -> avg uptime 100%.
	if u.CDF.N() != 1 {
		t.Fatalf("CDF n = %d", u.CDF.N())
	}
	if got := u.CDF.Quantile(0.5); got != 100 {
		t.Errorf("uptime = %v, want 100", got)
	}
	if u.FullUptimeFrac != 1.0 { // both clusters use stable IP sets
		t.Errorf("FullUptimeFrac = %v", u.FullUptimeFrac)
	}
	if u.SingletonFrac != 0.5 {
		t.Errorf("SingletonFrac = %v", u.SingletonFrac)
	}
}

func TestTopClustersTable15(t *testing.T) {
	st, res := clusterFixture(t)
	_ = st
	rows := TopClusters(res, 2, func(ipaddr.Addr) string { return "r1" })
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	top := rows[0]
	if top.TotalIPs != 2 || top.MeanIPs != 2 || top.MinIPs != 2 || top.MaxIPs != 2 {
		t.Errorf("top row = %+v", top)
	}
	if top.AvgUptime != 100 || top.StableIPs != 100 || top.MaxDeparture != 0 {
		t.Errorf("top row churn stats = %+v", top)
	}
	if top.Regions != 1 {
		t.Errorf("Regions = %d", top.Regions)
	}
}

func TestRegionsSingleShare(t *testing.T) {
	_, res := clusterFixture(t)
	ru := Regions(res, func(a ipaddr.Addr) string {
		// Put the two stable IPs in different regions.
		if a == ipaddr.MustParseAddr("1.0.0.2") {
			return "r2"
		}
		return "r1"
	})
	if ru.Total != 2 {
		t.Fatalf("Total = %d", ru.Total)
	}
	if ru.SingleRegion != 0.5 {
		t.Errorf("SingleRegion = %v", ru.SingleRegion)
	}
}

func TestSizePatternsTable11(t *testing.T) {
	web := uint8(store.PortHTTP)
	mk := func(ip, title string) *store.Record {
		return rec(ip, web, 200, func(r *store.Record) {
			r.Title = title
			r.Simhash = simhash.Hash("content for " + title)
		})
	}
	// Cluster "Grow" absent for the first half, present after: 0,1,0.
	// Cluster "Flat" present throughout: 0.
	days := []int{0, 7, 14, 21, 28, 35, 42, 49}
	var rounds [][]*store.Record
	for i := range days {
		var recs []*store.Record
		recs = append(recs, mk("1.0.0.1", "Flat"))
		if i >= 4 {
			recs = append(recs, mk("2.0.0.1", "Grow"))
		}
		rounds = append(rounds, recs)
	}
	st := mkStore(t, 100, days, rounds)
	res, err := cluster.Run(st, cluster.Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	pt := SizePatterns(st, res, 56)
	got := map[string]int{}
	for _, r := range pt.Rows {
		got[r.Pattern] = r.Count
	}
	if got["0"] != 1 {
		t.Errorf("flat pattern count = %d (%+v)", got["0"], pt.Rows)
	}
	if got["0,1"]+got["0,1,0"] != 1 {
		t.Errorf("grow pattern missing: %+v", pt.Rows)
	}
}

func TestCrossCloudOverlap(t *testing.T) {
	mkRes := func(gaIDs ...string) *cluster.Result {
		res := &cluster.Result{}
		for i, id := range gaIDs {
			res.Clusters = append(res.Clusters, &cluster.Cluster{ID: int64(i + 1), AnalyticsID: id})
		}
		return res
	}
	a := mkRes("UA-1-1", "UA-2-1", "")
	b := mkRes("UA-2-1", "UA-3-1")
	if got := CrossCloudOverlap(a, b); got != 1 {
		t.Errorf("overlap = %d, want 1", got)
	}
}

func TestVPCUsageFigure13(t *testing.T) {
	web := uint8(store.PortHTTP)
	vpcRec := func(ip string) *store.Record {
		return rec(ip, web, 200, func(r *store.Record) { r.VPC = true })
	}
	st := mkStore(t, 100, []int{0, 3}, [][]*store.Record{
		{rec("1.0.0.1", web, 200), vpcRec("2.0.0.1")},
		{rec("1.0.0.1", web, 200), vpcRec("2.0.0.1"), vpcRec("2.0.0.2")},
	})
	v := VPCUsage(st)
	if v.VPCResponsive[0] != 1 || v.VPCResponsive[1] != 2 || v.ClassicResponsive[0] != 1 {
		t.Errorf("VPC series = %+v", v)
	}
}

func TestVPCClustersFigure14(t *testing.T) {
	web := uint8(store.PortHTTP)
	mk := func(ip, title string, vpc bool) *store.Record {
		return rec(ip, web, 200, func(r *store.Record) {
			r.Title = title
			r.VPC = vpc
			r.Simhash = simhash.Hash("body " + title)
		})
	}
	st := mkStore(t, 100, []int{0}, [][]*store.Record{{
		mk("1.0.0.1", "ClassicSite", false),
		mk("2.0.0.1", "VPCSite", true),
		mk("3.0.0.1", "MixedSite", false),
		mk("3.0.0.2", "MixedSite", true),
	}})
	res, err := cluster.Run(st, cluster.Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := VPCClusters(st, res)
	if v.TotalClassicOnly != 1 || v.TotalVPCOnly != 1 || v.TotalMixed != 1 {
		t.Errorf("totals = %d/%d/%d", v.TotalClassicOnly, v.TotalVPCOnly, v.TotalMixed)
	}
}

func TestVPCPrefixTable2(t *testing.T) {
	vpc := map[ipaddr.Addr]bool{
		ipaddr.MustParseAddr("10.0.0.0"): true,
		ipaddr.MustParseAddr("10.0.4.0"): true,
		ipaddr.MustParseAddr("10.1.0.0"): false,
	}
	rows := VPCPrefixTable(vpc,
		func(a ipaddr.Addr) string { return "us-east-1" },
		map[string]int{"us-east-1": 8})
	if len(rows) != 1 || rows[0].VPCPrefixes != 2 || rows[0].PctOfRegion != 25 {
		t.Errorf("rows = %+v", rows)
	}
}

func TestCensusBasics(t *testing.T) {
	web := uint8(store.PortHTTP)
	mk := func(ip, server, backend, template string) *store.Record {
		return rec(ip, web, 200, func(r *store.Record) {
			r.Server = server
			r.PoweredBy = backend
			r.Template = template
		})
	}
	st := mkStore(t, 10, []int{0}, [][]*store.Record{{
		mk("1.0.0.1", "Apache/2.2.22 (Ubuntu)", "PHP/5.3.10", "WordPress 3.5.1"),
		mk("1.0.0.2", "Apache/2.4.7 (Ubuntu)", "PHP/5.4.23", "WordPress 3.8"),
		mk("1.0.0.3", "nginx/1.4.1", "", ""),
		mk("1.0.0.4", "", "", ""),
	}})
	c := Census(st)
	if c.IdentifiedServerFrac != 0.75 {
		t.Errorf("IdentifiedServerFrac = %v", c.IdentifiedServerFrac)
	}
	if c.ServerFamilies[0].Name != "Apache" || math.Abs(c.ServerFamilies[0].Share-2.0/3) > 1e-9 {
		t.Errorf("top server = %+v", c.ServerFamilies[0])
	}
	if c.BackendFamilies[0].Name != "PHP" || c.BackendFamilies[0].Share != 1.0 {
		t.Errorf("top backend = %+v", c.BackendFamilies[0])
	}
	if c.VulnerableWordPress != 0.5 { // 3.5.1 below 3.6, 3.8 not
		t.Errorf("VulnerableWordPress = %v", c.VulnerableWordPress)
	}
	foundVersion := false
	for _, v := range c.ApacheVersions {
		if v.Name == "Apache/2.2.22" {
			foundVersion = true
		}
	}
	if !foundVersion {
		t.Errorf("Apache versions = %+v", c.ApacheVersions)
	}
}

func TestVersionBelow(t *testing.T) {
	cases := []struct {
		v    string
		want bool
	}{
		{"3.5.1", true}, {"3.5", true}, {"2.9", true},
		{"3.6", false}, {"3.7.1", false}, {"4.0", false},
	}
	for _, c := range cases {
		if got := versionBelow(c.v, 3, 6); got != c.want {
			t.Errorf("versionBelow(%q) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestTrackersTable20(t *testing.T) {
	web := uint8(store.PortHTTP)
	mk := func(ip string, cluster int64, gaID string, trackers ...string) *store.Record {
		return rec(ip, web, 200, func(r *store.Record) {
			r.Cluster = cluster
			r.AnalyticsID = gaID
			r.Trackers = trackers
		})
	}
	st := mkStore(t, 10, []int{0}, [][]*store.Record{{
		mk("1.0.0.1", 1, "UA-100-1", "google-analytics"),
		mk("1.0.0.2", 1, "UA-100-2", "google-analytics", "facebook"),
		mk("1.0.0.3", 2, "UA-200-1", "google-analytics", "facebook", "twitter"),
		mk("1.0.0.4", 3, "", "twitter"),
	}})
	tr := Trackers(st)
	if tr.Rows[0].Tracker != "google-analytics" || tr.Rows[0].IPs != 3 {
		t.Errorf("top tracker = %+v", tr.Rows[0])
	}
	if tr.Rows[0].Clusters != 2 {
		t.Errorf("GA clusters = %d, want 2", tr.Rows[0].Clusters)
	}
	if tr.OneTracker != 0.5 || tr.TwoTrackers != 0.25 || tr.ThreeTrackers != 0.25 {
		t.Errorf("mix = %+v", tr)
	}
	if tr.UniqueGAIDs != 3 || tr.GAAccounts != 2 {
		t.Errorf("GA: ids=%d accounts=%d", tr.UniqueGAIDs, tr.GAAccounts)
	}
	// Account 100 has 2 profiles, account 200 has 1.
	if tr.OneProfileFrac != 0.5 || tr.TwoProfileFrac != 0.5 {
		t.Errorf("profiles: one=%v two=%v", tr.OneProfileFrac, tr.TwoProfileFrac)
	}
}

func TestFormatSmoke(t *testing.T) {
	st, res := clusterFixture(t)
	for _, s := range []string{
		Usage(st).Format("x"),
		Ports(st).Format("x"),
		Statuses(st).Format("x"),
		FormatContentTypes("x", ContentTypes(st, 5)),
		Churn(st).Format("x"),
		Clustering(st, res).Format("x"),
		Sizes(res).Format("x"),
		ClusterAvailability(st, res).Format("x"),
		SizePatterns(st, res, 10).Format("x", 5),
		IPUptimes(res).Format("x"),
		FormatTopClusters("x", TopClusters(res, 3, nil)),
		VPCUsage(st).Format("x"),
		VPCClusters(st, res).Format("x"),
		Census(st).Format("x"),
		Trackers(st).Format("x"),
	} {
		if s == "" {
			t.Error("empty Format output")
		}
		if strings.Contains(s, "%!") {
			t.Errorf("broken formatting: %s", s)
		}
	}
}

// TestVTStudyFormatTiedRegions: Table 17 lists regions by total, and
// regions with equal totals by name, whatever order the region map
// iterates in.
func TestVTStudyFormatTiedRegions(t *testing.T) {
	study := VTStudy{
		Months: []MonthWindow{{Name: "Oct", From: 0, To: 31}, {Name: "Nov", From: 31, To: 61}},
		RegionMonth: map[string]map[string]int{
			"us-east-1":      {"Oct": 7, "Nov": 2},
			"sa-east-1":      {"Oct": 5},
			"ap-southeast-1": {"Nov": 5},
			"eu-west-1":      {"Oct": 2, "Nov": 3},
			"us-west-2":      {"Oct": 1},
		},
	}
	want := study.Format("ec2")
	for i := 0; i < 50; i++ {
		if got := study.Format("ec2"); got != want {
			t.Fatalf("Format differs between calls:\n%s\nvs\n%s", got, want)
		}
	}
	last := -1
	for _, region := range []string{"us-east-1", "ap-southeast-1", "eu-west-1", "sa-east-1", "us-west-2"} {
		at := strings.Index(want, "  "+region+" ")
		if at <= last {
			t.Fatalf("region %s out of order (want total descending, then name):\n%s", region, want)
		}
		last = at
	}
}

func BenchmarkChurn(b *testing.B) {
	web := uint8(store.PortHTTP)
	var rounds [][]*store.Record
	days := make([]int, 10)
	for r := 0; r < 10; r++ {
		days[r] = r * 3
		var recs []*store.Record
		for i := 0; i < 500; i++ {
			recs = append(recs, rec(fmt.Sprintf("1.0.%d.%d", (i+r)%200, i%250), web, 200))
		}
		rounds = append(rounds, recs)
	}
	s := store.New("bench")
	for i, recs := range rounds {
		_, _ = s.BeginRound(days[i])
		for _, r := range recs {
			cp := *r
			_ = s.PutBatch([]*store.Record{&cp})
		}
		s.AddProbed(10000)
		_ = s.EndRound()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Churn(s)
	}
}

package analysis

import (
	"math"
	"math/rand"
	"testing"

	"whowas/internal/cluster"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
	"whowas/internal/timeseries"
)

// statsFixture builds a synthetic clustered campaign for the §8.1
// cluster statistics: nClusters clusters over nRounds rounds (three
// days apart), most of them singletons, some of 2-20 IPs and every
// 50th of 100-300 IPs. Each IP is in its cluster in a seeded ~80% of
// the rounds, so the IPs' round counts vary. Members are built in
// (round, IP) order, as cluster.Run hands them out, and the store
// holds one available record per member.
func statsFixture(tb testing.TB, nRounds, nClusters int) (*store.Store, *cluster.Result, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(47))
	res := &cluster.Result{}
	byRound := make([][]*store.Record, nRounds)
	next := ipaddr.MustParseAddr("10.0.0.1")
	for id := 1; id <= nClusters; id++ {
		size := 1
		switch {
		case id%50 == 0:
			size = 100 + rng.Intn(201)
		case id%3 == 0:
			size = 2 + rng.Intn(19)
		}
		ips := make([]ipaddr.Addr, size)
		for i := range ips {
			ips[i] = next
			next++
		}
		c := &cluster.Cluster{ID: int64(id), Title: "site"}
		for r := 0; r < nRounds; r++ {
			for _, ip := range ips {
				if rng.Intn(5) == 0 {
					continue
				}
				c.Members = append(c.Members, cluster.Member{IP: ip, Round: r, VPC: ip%7 == 0})
				byRound[r] = append(byRound[r], &store.Record{
					IP: ip, OpenPorts: store.PortHTTP, HTTPStatus: 200, Title: "site", Cluster: int64(id),
				})
			}
		}
		res.Clusters = append(res.Clusters, c)
	}
	res.Final = len(res.Clusters)
	st := store.New("stats")
	for r, recs := range byRound {
		if _, err := st.BeginRound(3 * r); err != nil {
			tb.Fatal(err)
		}
		if err := st.PutBatch(recs); err != nil {
			tb.Fatal(err)
		}
		if err := st.EndRound(); err != nil {
			tb.Fatal(err)
		}
	}
	return st, res, 3 * nRounds
}

func regionByIP(a ipaddr.Addr) string { return [...]string{"r1", "r2", "r3"}[a%3] }

// TestClusterStatsReproducible: Table 15's average IP uptime and
// Figure 12's uptime CDF are the same bits on every call, and equal
// the closed form len(Members) / (distinct IPs x available rounds)
// that holds because each member is exactly one <IP, round>.
func TestClusterStatsReproducible(t *testing.T) {
	_, res, _ := statsFixture(t, 9, 300)
	want := map[int64]float64{} // cluster ID -> average IP uptime, percent
	var cdf []float64
	ips := 0
	for _, c := range res.Clusters {
		distinct, rounds := map[ipaddr.Addr]bool{}, map[int]bool{}
		for _, m := range c.Members {
			distinct[m.IP], rounds[m.Round] = true, true
		}
		ips += len(distinct)
		want[c.ID] = 100 * (float64(len(c.Members)) / float64(len(distinct)*len(rounds)))
		if float64(len(c.Members))/float64(len(rounds)) > 1.5 {
			cdf = append(cdf, want[c.ID])
		}
	}
	if ips < 200 {
		t.Fatalf("fixture has %d IPs, want >= 200", ips)
	}
	// Every call must give call 0's bits; call 0 must give the closed form.
	firstRows, firstCDF := TopClusters(res, 0, regionByIP), IPUptimes(res).CDF.Points()
	for call := 1; call < 20; call++ {
		for i, row := range TopClusters(res, 0, regionByIP) {
			if math.Float64bits(row.AvgUptime) != math.Float64bits(firstRows[i].AvgUptime) {
				t.Fatalf("call %d: cluster %d AvgUptime = %v, call 0 gave %v", call, row.ClusterID, row.AvgUptime, firstRows[i].AvgUptime)
			}
		}
		for i, p := range IPUptimes(res).CDF.Points() {
			if math.Float64bits(p.X) != math.Float64bits(firstCDF[i].X) {
				t.Fatalf("call %d: uptime CDF point %d = %v, call 0 gave %v", call, i, p.X, firstCDF[i].X)
			}
		}
	}
	for _, row := range firstRows {
		if math.Float64bits(row.AvgUptime) != math.Float64bits(want[row.ClusterID]) {
			t.Errorf("cluster %d AvgUptime = %v, want %v", row.ClusterID, row.AvgUptime, want[row.ClusterID])
		}
	}
	wantCDF := timeseries.NewCDF(cdf).Points()
	if len(firstCDF) != len(wantCDF) {
		t.Fatalf("uptime CDF has %d points, want %d", len(firstCDF), len(wantCDF))
	}
	for i, p := range firstCDF {
		if math.Float64bits(p.X) != math.Float64bits(wantCDF[i].X) || p.Y != wantCDF[i].Y {
			t.Errorf("uptime CDF point %d = %v, want %v", i, p, wantCDF[i])
		}
	}
}

// BenchmarkClusterStats prices the six calls of bench's
// analysis.clusterstats span over a synthetic 8-round, 3000-cluster
// campaign.
func BenchmarkClusterStats(b *testing.B) {
	st, res, days := statsFixture(b, 8, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Clustering(st, res)
		ClusterAvailability(st, res)
		SizePatterns(st, res, days)
		IPUptimes(res)
		ClusterUptimes(res)
		TopClusters(res, 10, regionByIP)
	}
}

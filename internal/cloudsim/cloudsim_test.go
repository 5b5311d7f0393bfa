package cloudsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"whowas/internal/ipaddr"
	"whowas/internal/websim"
)

// testEC2 builds a small EC2-like cloud shared by the tests.
func testEC2(t testing.TB) *Cloud {
	t.Helper()
	cfg := DefaultEC2Config(256, 1) // ~18k IPs: fast enough for unit tests
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testAzure(t testing.TB) *Cloud {
	t.Helper()
	cfg := DefaultAzureConfig(64, 2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := DefaultEC2Config(64, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.Days = 0
	if err := bad.Validate(); err == nil {
		t.Error("Days=0 accepted")
	}
	// A run's day fields are uint16: the last day index must fit.
	bad.Days = 1 << 16
	if err := bad.Validate(); err != nil {
		t.Errorf("Days=65536 refused: %v", err)
	}
	bad.Days = 1<<16 + 1
	if err := bad.Validate(); err == nil {
		t.Error("Days=65537 accepted")
	}
	bad = good
	bad.Regions = nil
	if err := bad.Validate(); err == nil {
		t.Error("no regions accepted")
	}
	bad = good
	bad.Population.TargetResponsive = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("TargetResponsive=1.5 accepted")
	}
	bad = good
	bad.Population.SSHOnly = 0.9
	if err := bad.Validate(); err == nil {
		t.Error("port mix != 1 accepted")
	}
	bad = good
	bad.Population.WebClusters = 0
	if err := bad.Validate(); err == nil {
		t.Error("WebClusters=0 accepted")
	}
}

func TestDefaultConfigsScale(t *testing.T) {
	ec2 := DefaultEC2Config(64, 1)
	total := ec2.regionIPTotal()
	if total < 60000 || total > 90000 {
		t.Errorf("EC2 1:64 total IPs = %d, want ~73k", total)
	}
	if len(ec2.Regions) != 8 {
		t.Errorf("EC2 regions = %d, want 8", len(ec2.Regions))
	}
	az := DefaultAzureConfig(16, 1)
	if az.regionIPTotal() < 25000 || az.regionIPTotal() > 40000 {
		t.Errorf("Azure 1:16 total IPs = %d, want ~31k", az.regionIPTotal())
	}
	if az.Days != 62 || ec2.Days != 93 {
		t.Errorf("campaign lengths = %d/%d, want 93/62", ec2.Days, az.Days)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultEC2Config(512, 7)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.services) != len(b.services) {
		t.Fatalf("service counts differ: %d vs %d", len(a.services), len(b.services))
	}
	for d := 0; d < cfg.Days; d += 17 {
		if a.BoundCount(d) != b.BoundCount(d) {
			t.Errorf("day %d bound counts differ: %d vs %d", d, a.BoundCount(d), b.BoundCount(d))
		}
	}
	// Spot-check states across the space.
	rl := a.Ranges()
	for i := int64(0); i < int64(rl.Total()); i += 997 {
		ip, _ := rl.AtIndex(i)
		sa := a.StateAt(30, ip)
		sb := b.StateAt(30, ip)
		if sa != sb {
			t.Fatalf("state mismatch at %s: %+v vs %+v", ip, sa, sb)
		}
	}
}

func TestResponsiveCalibration(t *testing.T) {
	c := testEC2(t)
	total := float64(c.Ranges().Total())
	frac0 := float64(c.BoundCount(0)) / total
	if frac0 < 0.20 || frac0 > 0.28 {
		t.Errorf("day-0 responsive fraction = %.3f, want ~0.237", frac0)
	}
	// Growth over the campaign (paper: +3.3% responsive on EC2).
	last := c.Days() - 1
	growth := float64(c.BoundCount(last)-c.BoundCount(0)) / float64(c.BoundCount(0))
	if growth < 0.0 || growth > 0.09 {
		t.Errorf("responsive growth = %.3f, want ~0.033", growth)
	}
}

func TestPortMixCalibration(t *testing.T) {
	c := testEC2(t)
	counts := map[PortProfile]int{}
	rl := c.Ranges()
	day := c.Days() / 2
	rl.Each(func(a ipaddr.Addr) bool {
		st := c.StateAt(day, a)
		if st.Bound {
			counts[st.Ports]++
		}
		return true
	})
	totalResp := 0
	for _, n := range counts {
		totalResp += n
	}
	sshFrac := float64(counts[SSHOnly]) / float64(totalResp)
	if sshFrac < 0.18 || sshFrac > 0.34 {
		t.Errorf("SSH-only fraction = %.3f, want ~0.259", sshFrac)
	}
	webFrac := 1 - sshFrac
	if webFrac < 0.66 || webFrac > 0.82 {
		t.Errorf("web fraction = %.3f, want ~0.741", webFrac)
	}
	if counts[HTTPOnly] <= counts[HTTPSOnly] {
		t.Errorf("80-only (%d) should dominate 443-only (%d)", counts[HTTPOnly], counts[HTTPSOnly])
	}
}

func TestStateAtUnboundAndOutside(t *testing.T) {
	c := testEC2(t)
	outside := ipaddr.MustParseAddr("8.8.8.8")
	if st := c.StateAt(0, outside); st.Bound || st.Region != "" {
		t.Errorf("outside address state = %+v", st)
	}
	if st := c.StateAt(-1, 0); st.Bound {
		t.Error("negative day bound")
	}
	if st := c.StateAt(c.Days(), 0); st.Bound {
		t.Error("past-end day bound")
	}
}

func TestRegionAndVPCLookup(t *testing.T) {
	// Use scale 1:64, where Table 2's region proportions survive
	// rounding; the layout needs no day stepping.
	cfg := DefaultEC2Config(64, 1)
	space, err := newAddressSpace(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	vpcCount, total := 0, 0
	regions := map[string]int{}
	space.ranges.Each(func(a ipaddr.Addr) bool {
		b := space.block(a)
		if b < 0 {
			t.Fatalf("address %s has no block", a)
		}
		pi := space.prefixes[b]
		if !pi.Prefix.Contains(a) {
			t.Fatalf("address %s maps to block %s", a, pi.Prefix)
		}
		regions[pi.Region]++
		if pi.VPC {
			vpcCount++
		}
		total++
		return true
	})
	if len(regions) != 8 {
		t.Errorf("regions seen = %d, want 8", len(regions))
	}
	vpcFrac := float64(vpcCount) / float64(total)
	// Real EC2: 22.7% of IPs on VPC prefixes (weighted from Table 2).
	if vpcFrac < 0.12 || vpcFrac > 0.35 {
		t.Errorf("VPC IP fraction = %.3f, want ~0.23", vpcFrac)
	}
	// us-east-1 must be the largest region (Table 2).
	for r, n := range regions {
		if r != "us-east-1" && n > regions["us-east-1"] {
			t.Errorf("region %s (%d IPs) larger than us-east-1 (%d)", r, n, regions["us-east-1"])
		}
	}
	// Addresses below/above the space have no info.
	if space.block(space.prefixes[0].Prefix.Addr-1) >= 0 {
		t.Error("lookup below space succeeded")
	}
	if space.block(space.prefixes[len(space.prefixes)-1].Prefix.Last()+1) >= 0 {
		t.Error("lookup above space succeeded")
	}
}

func TestServiceIPsMatchSnapshot(t *testing.T) {
	c := testEC2(t)
	day := 10
	for _, svc := range c.services[:20] {
		ips := c.AssignedIPs(day, svc.ID)
		want := svc.SizeOn(day)
		// Assignment may fall short only under pool exhaustion, which
		// must not happen at default utilization.
		if len(ips) != want {
			t.Errorf("service %d: assigned %d IPs, target %d", svc.ID, len(ips), want)
		}
		for _, ip := range ips {
			st := c.StateAt(day, ip)
			if !st.Bound || st.ServiceID != svc.ID {
				t.Errorf("service %d: snapshot disagrees at %s: %+v", svc.ID, ip, st)
			}
		}
	}
}

func TestClusterSizeMix(t *testing.T) {
	// The paper buckets clusters by *average* size per round (§8.1:
	// 78.8% average one IP, 20.8% average 2-20 on EC2). Compute each
	// web service's average size over the days it is alive.
	c := testEC2(t)
	var single, small, total int
	for _, svc := range c.services {
		if !svc.Ports.Web() {
			continue
		}
		sum, days := 0, 0
		for d := 0; d < c.Days(); d++ {
			if n := svc.SizeOn(d); n > 0 {
				sum += n
				days++
			}
		}
		if days == 0 {
			continue
		}
		avg := float64(sum) / float64(days)
		total++
		switch {
		case avg < 1.5:
			single++
		case avg <= 20:
			small++
		}
	}
	singleFrac := float64(single) / float64(total)
	if singleFrac < 0.70 || singleFrac > 0.88 {
		t.Errorf("singleton cluster fraction = %.3f, want ~0.79", singleFrac)
	}
	smallFrac := float64(small) / float64(total)
	if smallFrac < 0.10 || smallFrac > 0.30 {
		t.Errorf("small cluster fraction = %.3f, want ~0.21", smallFrac)
	}
}

func TestGiantsPresent(t *testing.T) {
	c := testEC2(t)
	day := c.Days() / 2
	maxSize := 0
	for _, svc := range c.services {
		if n := svc.SizeOn(day); n > maxSize {
			maxSize = n
		}
	}
	// At 1:256 the top PaaS cluster should still hold ~129 IPs.
	if maxSize < 60 {
		t.Errorf("largest service size = %d, want >= 60", maxSize)
	}
}

func TestPageOnRendersContent(t *testing.T) {
	c := testEC2(t)
	day := 5
	found := 0
	for _, svc := range c.services {
		if !svc.Ports.Web() || svc.SizeOn(day) == 0 {
			continue
		}
		ips := c.AssignedIPs(day, svc.ID)
		if len(ips) == 0 {
			continue
		}
		prof, rev, ok := c.PageOn(day, ips[0])
		st := c.StateAt(day, ips[0])
		if st.Down || st.HTTPFail {
			if ok {
				t.Errorf("service %d: PageOn ok despite down/fail", svc.ID)
			}
			continue
		}
		if !ok {
			t.Errorf("service %d: PageOn not ok for live web IP", svc.ID)
			continue
		}
		if body := prof.RenderPage(rev); body == "" {
			t.Errorf("service %d: empty page", svc.ID)
		}
		found++
		if found >= 50 {
			break
		}
	}
	if found == 0 {
		t.Fatal("no web pages rendered")
	}
}

func TestMaliciousBehaviorTypes(t *testing.T) {
	c := testEC2(t)
	mal := c.MaliciousServices()
	if len(mal) == 0 {
		t.Fatal("no malicious services generated")
	}
	types := map[int]int{}
	for _, svc := range mal {
		types[svc.Malicious.Type]++
		if len(svc.Malicious.AllURLs()) == 0 {
			t.Errorf("malicious service %d has no URLs", svc.ID)
		}
	}
	for _, typ := range []int{1, 2, 3} {
		if types[typ] == 0 {
			t.Errorf("no type-%d malicious services", typ)
		}
	}
}

func TestMaliciousFlickerType2(t *testing.T) {
	mb := MaliciousBehavior{
		Kind: websim.Malware, Type: 2,
		ActiveFrom: 10, ActiveTo: 50, FlickerPeriod: 8,
		URLSets: [][]string{{"http://evil.example/a"}},
	}
	onDays, offDays := 0, 0
	for d := 10; d < 50; d++ {
		if _, active := mb.ActiveOn(d); active {
			onDays++
		} else {
			offDays++
		}
	}
	if onDays == 0 || offDays == 0 {
		t.Errorf("type-2 behaviour not flickering: on=%d off=%d", onDays, offDays)
	}
	if _, active := mb.ActiveOn(9); active {
		t.Error("active before window")
	}
	if _, active := mb.ActiveOn(50); active {
		t.Error("active after window")
	}
}

func TestMaliciousRotationType3(t *testing.T) {
	mb := MaliciousBehavior{
		Kind: websim.Malware, Type: 3,
		ActiveFrom: 0, ActiveTo: 40, RotateEvery: 10,
		URLSets: [][]string{{"http://a.example/1"}, {"http://b.example/2"}},
	}
	u0, _ := mb.ActiveOn(0)
	u1, _ := mb.ActiveOn(10)
	u2, _ := mb.ActiveOn(20)
	if u0[0] == u1[0] {
		t.Error("type-3 did not rotate at period boundary")
	}
	if u0[0] != u2[0] {
		t.Error("type-3 did not cycle back")
	}
	if got := mb.AllURLs(); len(got) != 2 {
		t.Errorf("AllURLs = %v", got)
	}
}

func TestDipDaysDepartures(t *testing.T) {
	c := testEC2(t)
	dips := c.cfg.Population.DipDays
	if len(dips) == 0 {
		t.Skip("no dips configured")
	}
	// Count services ending exactly on each dip day; should be >= the
	// configured batch (other patterns may coincide).
	for _, day := range dips {
		n := 0
		for _, svc := range c.services {
			if svc.EndDay == day {
				n++
			}
		}
		if n < c.cfg.Population.DipClusters {
			t.Errorf("dip day %d: %d departures, want >= %d", day, n, c.cfg.Population.DipClusters)
		}
	}
}

func TestIPChurnOwnershipChanges(t *testing.T) {
	c := testEC2(t)
	// Across the campaign, some IP must be owned by different services
	// on different days (the churn WhoWas exists to measure).
	owners := map[ipaddr.Addr]map[uint64]bool{}
	for d := 0; d < c.Days(); d += 7 {
		for _, s := range c.Services() {
			for _, a := range c.AssignedIPs(d, s.ID) {
				if owners[a] == nil {
					owners[a] = map[uint64]bool{}
				}
				owners[a][s.ID] = true
			}
		}
	}
	multi := 0
	for _, m := range owners {
		if len(m) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no IP ever changed web-service ownership; churn model broken")
	}
}

func TestSlowHostsRareButPresent(t *testing.T) {
	c := testEC2(t)
	rl := c.Ranges()
	slow, bound := 0, 0
	rl.Each(func(a ipaddr.Addr) bool {
		st := c.StateAt(0, a)
		if st.Bound {
			bound++
			if st.Slow {
				slow++
			}
		}
		return true
	})
	frac := float64(slow) / float64(bound)
	if frac <= 0 || frac > 0.02 {
		t.Errorf("slow-host fraction = %.4f, want (0, 0.02]", frac)
	}
}

func TestHTTPFailTransient(t *testing.T) {
	c := testEC2(t)
	// An IP failing on one day should usually recover later: the fail
	// flag must not be constant per IP.
	rl := c.Ranges()
	var failsSomeday, failsAlways int
	checked := 0
	rl.Each(func(a ipaddr.Addr) bool {
		st := c.StateAt(0, a)
		if !st.Web {
			return true
		}
		checked++
		if checked > 2000 {
			return false
		}
		fails := 0
		days := 0
		for d := 0; d < c.Days(); d += 5 {
			s := c.StateAt(d, a)
			if !s.Web {
				continue
			}
			days++
			if s.HTTPFail {
				fails++
			}
		}
		if fails > 0 {
			failsSomeday++
			if fails == days {
				failsAlways++
			}
		}
		return true
	})
	if failsSomeday == 0 {
		t.Error("no transient HTTP failures generated")
	}
	if failsAlways > failsSomeday/2 {
		t.Errorf("HTTP failures not transient: %d/%d always fail", failsAlways, failsSomeday)
	}
}

func TestAzureNoVPCNoVT(t *testing.T) {
	c := testAzure(t)
	rl := c.Ranges()
	rl.Each(func(a ipaddr.Addr) bool {
		if c.IsVPC(a) {
			t.Fatalf("Azure address %s marked VPC", a)
		}
		return true
	})
	for _, svc := range c.MaliciousServices() {
		if svc.Malicious.Type != 1 && svc.Malicious.Type != 2 && svc.Malicious.Type != 3 {
			t.Errorf("unexpected malicious type %d", svc.Malicious.Type)
		}
	}
}

func TestSizeScheduleShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	days := 93
	flat := sizeSchedule(rng, "0", 10, days, 0)
	for _, v := range flat {
		if v != 10 {
			t.Fatalf("stable schedule varies: %v", flat)
		}
	}
	up := sizeSchedule(rng, "0,1,0", 10, days, 0)
	if up[0] >= up[days-1] {
		t.Errorf("step-up schedule: first=%d last=%d", up[0], up[days-1])
	}
	down := sizeSchedule(rng, "0,-1,0", 10, days, 0)
	if down[0] <= down[days-1] {
		t.Errorf("step-down schedule: first=%d last=%d", down[0], down[days-1])
	}
	bump := sizeSchedule(rng, "0,1,0,-1,0", 10, days, 0)
	if bump[days/2] <= bump[0] || bump[days-1] != bump[0] {
		t.Errorf("bump schedule: start=%d mid=%d end=%d", bump[0], bump[days/2], bump[days-1])
	}
	dip := sizeSchedule(rng, "0,-1,1,0", 10, days, 0)
	if dip[days/2] >= dip[0] {
		t.Errorf("dip schedule: start=%d mid=%d", dip[0], dip[days/2])
	}
	if v := sizeSchedule(rng, "0", 0, 5, 0); v[0] != 1 {
		t.Errorf("base<1 not clamped: %v", v)
	}
}

func TestServiceDownWindows(t *testing.T) {
	svc := &Service{ID: 3, DownPeriod: 10, DownLen: 2}
	downDays := 0
	for d := 0; d < 100; d++ {
		if svc.DownOn(d) {
			downDays++
		}
	}
	if downDays != 20 {
		t.Errorf("down days = %d, want 20", downDays)
	}
	never := &Service{ID: 4}
	for d := 0; d < 50; d++ {
		if never.DownOn(d) {
			t.Fatal("service with no window reports down")
		}
	}
}

func TestRevisionOn(t *testing.T) {
	svc := &Service{ID: 1, RevisionEvery: 10}
	if svc.RevisionOn(0) != 0 || svc.RevisionOn(9) != 0 || svc.RevisionOn(10) != 1 {
		t.Error("revision cadence wrong")
	}
	fixed := &Service{ID: 2}
	if fixed.RevisionOn(55) != 0 {
		t.Error("no-revision service revised")
	}
}

func BenchmarkStateAt(b *testing.B) {
	c := testEC2(b)
	rl := c.Ranges()
	ip, _ := rl.AtIndex(int64(rl.Total() / 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StateAt(i%c.Days(), ip)
	}
}

// BenchmarkStateAtScattered reads the truth the way a scan round does:
// on one day of the 1:128 EC2 cloud, lookups alternate a web host with
// an unbound address, each drawn in shuffled order across the space.
func BenchmarkStateAtScattered(b *testing.B) {
	c, err := New(DefaultEC2Config(128, 3))
	if err != nil {
		b.Fatal(err)
	}
	day := c.Days() / 2
	var web, unbound []ipaddr.Addr
	c.Ranges().Each(func(a ipaddr.Addr) bool {
		if st := c.StateAt(day, a); st.Web {
			web = append(web, a)
		} else if !st.Bound {
			unbound = append(unbound, a)
		}
		return true
	})
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(web), func(i, j int) { web[i], web[j] = web[j], web[i] })
	rng.Shuffle(len(unbound), func(i, j int) { unbound[i], unbound[j] = unbound[j], unbound[i] })
	ips := make([]ipaddr.Addr, 0, 2*len(web))
	for i := 0; i < len(web) && i < len(unbound); i++ {
		ips = append(ips, web[i], unbound[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StateAt(day, ips[i%len(ips)])
	}
}

// BenchmarkNewCloud prices building the EC2 cloud at several scales,
// with the heap the built cloud retains (live-MiB, read after a GC) and
// its run count beside the time and allocations; select one scale with
// e.g. -bench 'NewCloud/1:8$'.
func BenchmarkNewCloud(b *testing.B) {
	for _, div := range []int{512, 128, 32, 8} {
		b.Run(fmt.Sprintf("1:%d", div), func(b *testing.B) {
			cfg := DefaultEC2Config(div, 3)
			var before, after runtime.MemStats
			var c *Cloud
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c = nil
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				var err error
				if c, err = New(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20), "live-MiB")
			runs := 0
			for _, blk := range c.runs {
				runs += len(blk)
			}
			b.ReportMetric(float64(runs), "runs")
		})
	}
}

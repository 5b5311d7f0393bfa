package cloudsim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"whowas/internal/ipaddr"
	"whowas/internal/websim"
)

// Cloud is a fully materialized simulated IaaS cloud: the ground truth
// of every public IP across the campaign, stored as one run per
// binding. runs[b] holds the runs of /22 block b in address, then
// first-day order; the blocks are consecutive subslices of one sorted
// slice. services[i] has ID i+1. It is immutable after New, so the
// network, DNS and blacklist simulators can share it concurrently.
type Cloud struct {
	cfg      Config
	space    *addressSpace
	services []*Service
	runs     [][]run
	bound    []int32 // bindings per day
}

// run is one binding held over consecutive days: an instance of one
// owner (a service, or 0 for the background population) holding addr
// from day first through day last inclusive.
type run struct {
	addr        ipaddr.Addr
	svcID       uint32
	first, last uint16
	ports       uint8
}

// IPState is the ground-truth state of one IP on one day.
type IPState struct {
	Bound     bool        // an instance holds the IP
	Ports     PortProfile // which probed ports answer
	Web       bool        // serves HTTP(S) content
	ServiceID uint64      // owning web service, 0 for background
	Region    string
	VPC       bool
	Slow      bool // answers probes only after >2 s (the §4 timeout tail)
	HTTPFail  bool // transient HTTP-layer failure today
	Down      bool // service-wide maintenance window today
}

// New builds the cloud: generates the tenant population and steps the
// assignment engine through every campaign day.
func New(cfg Config) (*Cloud, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	space, err := newAddressSpace(&cfg)
	if err != nil {
		return nil, err
	}
	popRng := rand.New(rand.NewSource(cfg.Seed))
	services := buildPopulation(&cfg, popRng)
	for i, s := range services {
		if s.ID != uint64(i+1) {
			return nil, fmt.Errorf("cloudsim: service %d has ID %d, want %d", i, s.ID, i+1)
		}
	}
	c := &Cloud{cfg: cfg, space: space, services: services}
	c.step(rand.New(rand.NewSource(cfg.Seed + 1)))
	return c, nil
}

// step runs the per-day assignment engine, producing c.runs and c.bound.
func (c *Cloud) step(rng *rand.Rand) {
	pool := newPool(c.space, rng)
	assigned := make([][]ipaddr.Addr, len(c.services)) // current IPs, by service position
	// reserve models Elastic/Reserved IPs (§2): addresses a deployment
	// released while downsizing stay allocated to the tenant and are
	// re-bound first when it scales back up, so size fluctuations do
	// not churn ownership.
	reserve := make([][]ipaddr.Addr, len(c.services))

	type bgInst struct {
		addr     ipaddr.Addr
		deathDay int
	}
	var bg []bgInst

	p := c.cfg.Population
	total := float64(c.cfg.regionIPTotal())
	responsive0 := total * p.TargetResponsive
	lastDay := c.cfg.Days - 1
	// Per-day web IP usage is known in advance from the schedules.
	webByDay := make([]int, c.cfg.Days)
	for _, s := range c.services {
		for d := s.StartDay; d < s.EndDay && d < c.cfg.Days; d++ {
			webByDay[d] += s.SizeOn(d)
		}
	}
	// The background population absorbs the *smooth trend* of web
	// growth so the total responsive curve follows Table 7's target,
	// while sharp web events (the Friday departure dips of Figure 8)
	// still show through. A 21-day centered moving average separates
	// trend from event.
	webTrend := movingAverage(webByDay, 10)
	bgTarget := func(d int) int {
		target := responsive0
		if lastDay > 0 {
			target = responsive0 * (1 + p.Growth*float64(d)/float64(lastDay))
		}
		n := int(target) - int(webTrend[d])
		if n < 0 {
			n = 0
		}
		return n
	}
	geomLifetime := func() int {
		churn := p.DailyBackgroundChurn
		if churn <= 0 {
			return c.cfg.Days + 1
		}
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		life := int(math.Log(u)/math.Log(1-churn)) + 1
		if life < 1 {
			life = 1
		}
		return life
	}

	acquireFor := func(s *Service) (ipaddr.Addr, bool) {
		region := s.Regions[rng.Intn(len(s.Regions))]
		vpc := rng.Float64() < s.VPCShare
		if a, ok := pool.acquire(region, vpc); ok {
			return a, true
		}
		// Fall back to the other class, then to any region.
		if a, ok := pool.acquire(region, !vpc); ok {
			return a, true
		}
		for _, r := range c.cfg.Regions {
			for _, v := range []bool{vpc, !vpc} {
				if a, ok := pool.acquire(r.Name, v); ok {
					return a, true
				}
			}
		}
		return 0, false
	}

	// latest[a-base] is 1 + the index of a's newest run, which a binding
	// that held yesterday with the same owner (so the same ports) extends.
	base := c.space.prefixes[0].Prefix.Addr
	latest := make([]int32, c.space.ranges.Total())
	var runs []run
	c.bound = make([]int32, c.cfg.Days)
	emit := func(d int, a ipaddr.Addr, svcID uint32, ports PortProfile) {
		c.bound[d]++
		if i := latest[a-base]; i > 0 && int(runs[i-1].last) == d-1 && runs[i-1].svcID == svcID {
			runs[i-1].last = uint16(d)
			return
		}
		runs = append(runs, run{addr: a, svcID: svcID, first: uint16(d), last: uint16(d), ports: uint8(ports)})
		latest[a-base] = int32(len(runs))
	}

	for d := 0; d < c.cfg.Days; d++ {
		// Service transitions, in deterministic (ID) order.
		for i, s := range c.services {
			cur := assigned[i]
			target := s.SizeOn(d)
			// Classic->VPC migration (§8.1, Figure 14): the deployment
			// relaunches all instances on its migration day, drawing
			// fresh addresses from the other networking type.
			if s.MigrateDay == d && len(cur) > 0 {
				for _, a := range cur {
					pool.release(a)
				}
				cur = cur[:0]
				for _, a := range reserve[i] {
					pool.release(a)
				}
				reserve[i] = nil
				s.VPCShare = s.MigrateVPCShare
			}
			// Intra-deployment IP churn: replace a fraction of IPs
			// (genuine relinquishment — the addresses return to the
			// provider pool, not to the tenant's reserve).
			if d > s.StartDay && s.DailyChurn > 0 && len(cur) > 0 && target > 0 {
				keep := cur[:0]
				replaced := 0
				for _, a := range cur {
					if rng.Float64() < s.DailyChurn {
						pool.release(a)
						replaced++
					} else {
						keep = append(keep, a)
					}
				}
				cur = keep
				for i := 0; i < replaced; i++ {
					if a, ok := acquireFor(s); ok {
						cur = append(cur, a)
					}
				}
			}
			// Resize toward the day's target. Downsizing terminates the
			// newest instances first (autoscaling keeps the long-lived
			// base) and parks their IPs in the tenant's reserve
			// (Elastic-IP semantics); a deployment that ends releases
			// everything.
			for len(cur) > target {
				idx := len(cur) - 1
				if target == 0 {
					pool.release(cur[idx])
				} else {
					reserve[i] = append(reserve[i], cur[idx])
				}
				cur = cur[:idx]
			}
			if target == 0 && len(reserve[i]) > 0 {
				for _, a := range reserve[i] {
					pool.release(a)
				}
				reserve[i] = nil
			}
			for len(cur) < target {
				if rs := reserve[i]; len(rs) > 0 {
					cur = append(cur, rs[len(rs)-1])
					reserve[i] = rs[:len(rs)-1]
					continue
				}
				a, ok := acquireFor(s)
				if !ok {
					break
				}
				cur = append(cur, a)
			}
			assigned[i] = cur
		}

		// Background population lifecycle.
		live := bg[:0]
		for _, inst := range bg {
			if inst.deathDay <= d {
				pool.release(inst.addr)
			} else {
				live = append(live, inst)
			}
		}
		bg = live
		for len(bg) < bgTarget(d) {
			// Background instances spread across all regions; a share
			// sits on VPC prefixes once VPC exists.
			region := c.cfg.Regions[rng.Intn(len(c.cfg.Regions))].Name
			vpc := rng.Float64() < p.VPCClusterShare*0.8
			a, ok := pool.acquire(region, vpc)
			if !ok {
				if a, ok = pool.acquire(region, !vpc); !ok {
					break
				}
			}
			bg = append(bg, bgInst{addr: a, deathDay: d + geomLifetime()})
		}

		for i, s := range c.services {
			for _, a := range assigned[i] {
				emit(d, a, uint32(s.ID), s.Ports)
			}
		}
		for _, inst := range bg {
			emit(d, inst.addr, 0, SSHOnly)
		}
	}
	slices.SortFunc(runs, func(x, y run) int {
		return cmp.Or(cmp.Compare(x.addr, y.addr), cmp.Compare(x.first, y.first))
	})
	c.runs = make([][]run, len(c.space.prefixes))
	for b, pi := range c.space.prefixes {
		n := sort.Search(len(runs), func(i int) bool { return runs[i].addr > pi.Prefix.Last() })
		c.runs[b], runs = runs[:n:n], runs[n:]
	}
}

// movingAverage returns the centered moving average of xs with the
// given half-window (window = 2*half+1). Near the edges the window
// shrinks *symmetrically*: an asymmetric window would bias the trend
// toward interior values and distort the growth the background
// population compensates for.
func movingAverage(xs []int, half int) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		h := half
		if i < h {
			h = i
		}
		if len(xs)-1-i < h {
			h = len(xs) - 1 - i
		}
		sum := 0
		for j := i - h; j <= i+h; j++ {
			sum += xs[j]
		}
		out[i] = float64(sum) / float64(2*h+1)
	}
	return out
}

// hash64 is a deterministic per-(cloud, ip, day, salt) hash for
// transient-event draws (HTTP failures, slow hosts).
func (c *Cloud) hash64(ip ipaddr.Addr, day int, salt uint64) uint64 {
	x := uint64(ip)<<32 ^ uint64(uint32(day))<<8 ^ salt ^ uint64(c.cfg.Seed)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Config returns the cloud's configuration.
func (c *Cloud) Config() Config { return c.cfg }

// Days returns the campaign length in days.
func (c *Cloud) Days() int { return c.cfg.Days }

// Ranges returns the probed address space.
func (c *Cloud) Ranges() *ipaddr.RangeList { return c.space.ranges }

// Services exposes the ground-truth tenant population (shared slice;
// callers must not modify).
func (c *Cloud) Services() []*Service { return c.services }

// ServiceByID looks up one service, or nil for 0 (the background
// population) and unknown IDs.
func (c *Cloud) ServiceByID(id uint64) *Service {
	if id == 0 || id > uint64(len(c.services)) {
		return nil
	}
	return c.services[id-1]
}

// RegionOf returns the region owning an address, or "".
func (c *Cloud) RegionOf(a ipaddr.Addr) string {
	if b := c.space.block(a); b >= 0 {
		return c.space.prefixes[b].Region
	}
	return ""
}

// IsVPC reports the ground-truth VPC flag of an address's prefix.
func (c *Cloud) IsVPC(a ipaddr.Addr) bool {
	b := c.space.block(a)
	return b >= 0 && c.space.prefixes[b].VPC
}

// StateAt returns the ground-truth state of ip on the given day.
func (c *Cloud) StateAt(day int, ip ipaddr.Addr) IPState {
	var st IPState
	if day < 0 || day >= c.cfg.Days {
		return st
	}
	blk := c.space.block(ip)
	if blk < 0 {
		return st
	}
	st.Region = c.space.prefixes[blk].Region
	st.VPC = c.space.prefixes[blk].VPC
	// The last run of ip that starts by day holds ip unless it ended.
	runs := c.runs[blk]
	i := sort.Search(len(runs), func(i int) bool {
		r := &runs[i]
		return r.addr > ip || r.addr == ip && int(r.first) > day
	})
	if i == 0 || runs[i-1].addr != ip || int(runs[i-1].last) < day {
		return st
	}
	b := &runs[i-1]
	st.Bound = true
	st.Ports = PortProfile(b.ports)
	st.ServiceID = uint64(b.svcID)
	st.Web = st.Ports.Web() && b.svcID != 0
	// ~0.5% of live hosts are persistently slow (only answer patient
	// probes); keyed by IP+service so the set is stable day to day.
	st.Slow = c.hash64(ip, 0, uint64(b.svcID)*31+7)%1000 < 4
	if st.Web {
		st.Down = c.services[b.svcID-1].DownOn(day)
		failPermille := uint64(c.cfg.Population.HTTPFailRate * 1000)
		st.HTTPFail = c.hash64(ip, day, 13)%1000 < failPermille
	}
	return st
}

// PageOn returns the content profile an IP serves on a day, with the
// content revision in effect. ok is false when the IP serves no web
// content that day (unbound, SSH-only, service down, or HTTP failure).
func (c *Cloud) PageOn(day int, ip ipaddr.Addr) (profile websim.Profile, revision int, ok bool) {
	st := c.StateAt(day, ip)
	if !st.Web || st.Down || st.HTTPFail {
		return websim.Profile{}, 0, false
	}
	svc := c.services[st.ServiceID-1]
	p, ok := svc.PageOn(day)
	if !ok {
		return websim.Profile{}, 0, false
	}
	return p, svc.RevisionOn(day), true
}

// Holding is one address an owner held from day First through day
// Last inclusive.
type Holding struct {
	Addr        ipaddr.Addr
	First, Last int
}

// Holdings returns every holding of a service (0 for the background
// population) in address, then first-day order: the ground truth the
// blacklist feeds are built from, read once rather than once per day.
func (c *Cloud) Holdings(svcID uint64) []Holding {
	var out []Holding
	for _, runs := range c.runs {
		for _, r := range runs {
			if uint64(r.svcID) == svcID {
				out = append(out, Holding{r.addr, int(r.first), int(r.last)})
			}
		}
	}
	return out
}

// AssignedIPs returns the IPs a service holds on a day, in address
// order (ground truth for calibration tests and DNS answers).
func (c *Cloud) AssignedIPs(day int, svcID uint64) []ipaddr.Addr {
	var out []ipaddr.Addr
	for _, h := range c.Holdings(svcID) {
		if h.First <= day && day <= h.Last {
			out = append(out, h.Addr)
		}
	}
	return out
}

// BoundCount returns how many IPs are bound on a day (responsive
// ground truth).
func (c *Cloud) BoundCount(day int) int {
	if day < 0 || day >= len(c.bound) {
		return 0
	}
	return int(c.bound[day])
}

// MaliciousServices returns services carrying malicious behaviour.
func (c *Cloud) MaliciousServices() []*Service {
	var out []*Service
	for _, s := range c.services {
		if s.Malicious.Type != 0 {
			out = append(out, s)
		}
	}
	return out
}

// Package cloudsim simulates an IaaS cloud (EC2- or Azure-like) as the
// measurement substrate for WhoWas. The paper measured the real Amazon
// EC2 and Microsoft Azure clouds during Sep–Dec 2013; this package
// stands in for them, generating a ground-truth timeline of every
// public IP's state (bound/unbound, open ports, hosted web service and
// its content) day by day.
//
// The simulation is calibrated to the distributions the paper reports
// (DESIGN.md §5 lists them): address-space utilization and growth
// (Table 7), open-port mix (Table 3), HTTP status mix (Table 4),
// cluster-size mix and churn (§8.1), size-change patterns (Table 11),
// VPC uptake (Table 2, Figures 13/14), Friday departure dips
// (Figure 8), and malicious activity (§8.2). Everything is driven by a
// single seed, so campaigns are reproducible.
package cloudsim

import (
	"fmt"

	"whowas/internal/websim"
)

// RegionConfig sizes one cloud region. EC2 regions carve their address
// space into classic and VPC /22 prefixes (Table 2); Azure has no VPC
// distinction.
// The json tags are pinned: region configs cross the cloudapi control
// plane inside a CloudSpec.
type RegionConfig struct {
	Name       string `json:"name"`
	Prefixes22 int    `json:"prefixes_22"` // total /22 blocks advertised by the region
	VPC22      int    `json:"vpc_22"`      // of which are VPC prefixes (EC2 only)
}

// GiantConfig describes one very large deployment, mirroring a row of
// Table 15.
type GiantConfig struct {
	MeanSize   int     // average IPs per round
	SizeJitter float64 // relative day-to-day size noise
	DailyChurn float64 // fraction of the IP set replaced per day
	Regions    int     // number of regions used
	VPCShare   float64 // fraction of its IPs drawn from VPC prefixes
	Category   websim.Category
}

// MaliciousConfig sizes the §8.2 malicious-activity ground truth.
type MaliciousConfig struct {
	// SafeBrowsing-visible services: pages containing phishing/malware
	// links (EC2: 196 IPs in 51 clusters; Azure: 13 IPs in 11 clusters).
	SBServices int
	// VirusTotal-flagged services by behaviour type (§8.2: 34 hold the
	// same page, 42 flicker, 22 rotate pages). Zero for Azure.
	VTType1, VTType2, VTType3 int
	// Linchpin services aggregating very many malicious URLs.
	Linchpins int
	// LinchpinURLs is how many malicious URLs a linchpin page carries.
	LinchpinURLs int
}

// PopulationConfig controls the synthetic tenant population.
type PopulationConfig struct {
	// TargetResponsive is the average fraction of the probed address
	// space that responds to probes (Table 7: 0.237 EC2, 0.239 Azure).
	TargetResponsive float64
	// Growth is the relative increase in responsive IPs over the
	// campaign (Table 7: 0.033 EC2, 0.073 Azure).
	Growth float64
	// Port mix among responsive IPs (Table 3).
	SSHOnly, HTTPOnly, HTTPSOnly, HTTPBoth float64
	// HTTPFailRate is the per-round probability that a web-open IP
	// fails at the HTTP layer (timeout/reset), making it unavailable.
	HTTPFailRate float64
	// DailyBackgroundChurn is the per-day probability that a background
	// (single-instance) deployment stops and is replaced, driving the
	// responsiveness churn of Figure 9.
	DailyBackgroundChurn float64
	// Cluster-size mix (§8.1): fractions of clusters by avg-size band.
	SingletonFrac, SmallFrac, MediumFrac float64 // 1, 2–20, 21–50; remainder >50
	// EphemeralFrac is the fraction of clusters that appear for only a
	// few days (§8.1: 0.114 EC2, 0.131 Azure).
	EphemeralFrac float64
	// WebClusters is the approximate number of web services (clusters)
	// alive at any time, before ephemerals.
	WebClusters int
	// Giants instantiates Table 15-style deployments.
	Giants []GiantConfig
	// DipDays lists campaign day offsets on which a batch of services
	// departs permanently (the paper's Friday/Saturday dips).
	DipDays []int
	// DipClusters is how many clusters leave on each dip day.
	DipClusters int
	// Malicious activity knobs.
	Malicious MaliciousConfig
	// VPCClusterShare is the fraction of new services placed on VPC
	// prefixes (only meaningful for EC2-like clouds). The paper found
	// 24.5% VPC-only clusters plus 2.6% mixed, with classic declining.
	VPCClusterShare float64
	// RegisteredDNSShare is the fraction of web services with a public
	// DNS record, used by the DNS-interrogation baseline comparison.
	RegisteredDNSShare float64
	// SharedServices is how many cross-cloud services this cloud
	// hosts; the same profiles (by shared index) appear on any other
	// cloud configured with SharedServices, reproducing the paper's
	// 980 clusters observed on both EC2 and Azure.
	SharedServices int
}

// Config fully specifies one simulated cloud.
type Config struct {
	Name       string // "ec2" or "azure"; used in labels and DNS names
	Kind       websim.CloudKind
	Days       int   // campaign length in days (93 EC2, 62 Azure; at most 65536)
	Seed       int64 // master seed; all randomness derives from it
	BaseOctet  byte  // first octet of the simulated address space
	Regions    []RegionConfig
	Population PopulationConfig
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Days <= 0 || c.Days > 1<<16 {
		return fmt.Errorf("cloudsim: Days must be in [1, 65536], have %d", c.Days)
	}
	if len(c.Regions) == 0 {
		return fmt.Errorf("cloudsim: no regions configured")
	}
	for _, r := range c.Regions {
		if r.Prefixes22 <= 0 {
			return fmt.Errorf("cloudsim: region %s has %d prefixes", r.Name, r.Prefixes22)
		}
		if r.VPC22 < 0 || r.VPC22 > r.Prefixes22 {
			return fmt.Errorf("cloudsim: region %s has VPC22=%d of %d", r.Name, r.VPC22, r.Prefixes22)
		}
	}
	p := c.Population
	if p.TargetResponsive <= 0 || p.TargetResponsive >= 1 {
		return fmt.Errorf("cloudsim: TargetResponsive %v outside (0,1)", p.TargetResponsive)
	}
	portSum := p.SSHOnly + p.HTTPOnly + p.HTTPSOnly + p.HTTPBoth
	if portSum < 0.99 || portSum > 1.01 {
		return fmt.Errorf("cloudsim: port mix sums to %v, want 1", portSum)
	}
	if p.WebClusters <= 0 {
		return fmt.Errorf("cloudsim: WebClusters must be positive")
	}
	return nil
}

// DefaultEC2Config returns an EC2-like cloud at 1/scaleDiv of the real
// September-2013 EC2 (4,702,208 IPs across 8 regions). scaleDiv=64
// yields 73,728 probed IPs, which a full 51-round campaign scans in
// seconds over the in-memory network. Region proportions and VPC
// shares follow Table 2.
func DefaultEC2Config(scaleDiv int, seed int64) Config {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	// Real region sizes in /22 blocks, derived from Table 2
	// (total = VPC prefixes / VPC share).
	type row struct {
		name       string
		total, vpc int
	}
	rows := []row{
		{"us-east-1", 2044, 280},
		{"us-west-2", 703, 256},
		{"eu-west-1", 596, 124},
		{"ap-northeast-1", 306, 98},
		{"ap-southeast-1", 242, 82},
		{"us-west-1", 320, 72},
		{"ap-southeast-2", 192, 64},
		{"sa-east-1", 176, 56},
	}
	var regions []RegionConfig
	for _, r := range rows {
		total := r.total / scaleDiv
		if total < 2 {
			total = 2
		}
		vpc := int(float64(total)*float64(r.vpc)/float64(r.total) + 0.5)
		if vpc < 1 {
			vpc = 1
		}
		if vpc >= total {
			vpc = total - 1
		}
		regions = append(regions, RegionConfig{Name: r.name, Prefixes22: total, VPC22: vpc})
	}
	total22 := 0
	for _, r := range regions {
		total22 += r.Prefixes22
	}
	totalIPs := total22 * 1024
	responsive := int(float64(totalIPs) * 0.237)
	// Web-open responsive IPs ≈ 74.1%; cluster count chosen so the
	// cluster-size mix covers them (mean non-giant cluster ≈ 2.1 IPs).
	giants := []GiantConfig{
		{MeanSize: 33145 / scaleDiv, SizeJitter: 0.03, DailyChurn: 0.004, Regions: 2, VPCShare: 0.0, Category: websim.CategoryPaaS},
		{MeanSize: 5597 / scaleDiv, SizeJitter: 0.02, DailyChurn: 0.02, Regions: 8, VPCShare: 0.24, Category: websim.CategoryCloudHosting},
		{MeanSize: 2029 / scaleDiv, SizeJitter: 0.06, DailyChurn: 0.012, Regions: 8, VPCShare: 0.66, Category: websim.CategoryVPN},
		{MeanSize: 1167 / scaleDiv, SizeJitter: 0.45, DailyChurn: 0.28, Regions: 6, VPCShare: 0.004, Category: websim.CategorySaaS},
		{MeanSize: 617 / scaleDiv, SizeJitter: 0.6, DailyChurn: 0.28, Regions: 1, VPCShare: 0, Category: websim.CategoryGame},
		{MeanSize: 529 / scaleDiv, SizeJitter: 0.25, DailyChurn: 0.07, Regions: 1, VPCShare: 0, Category: websim.CategoryShopping},
		{MeanSize: 370 / scaleDiv, SizeJitter: 0.35, DailyChurn: 0.25, Regions: 1, VPCShare: 0, Category: websim.CategoryPaaS},
		{MeanSize: 366 / scaleDiv, SizeJitter: 0.06, DailyChurn: 0.06, Regions: 2, VPCShare: 1.0, Category: websim.CategoryVideo},
		{MeanSize: 281 / scaleDiv, SizeJitter: 0.02, DailyChurn: 0.006, Regions: 1, VPCShare: 0, Category: websim.CategoryMarketing},
		{MeanSize: 255 / scaleDiv, SizeJitter: 0.3, DailyChurn: 0.22, Regions: 5, VPCShare: 0, Category: websim.CategoryCloudHosting},
	}
	var keptGiants []GiantConfig
	for _, g := range giants {
		if g.MeanSize >= 4 {
			keptGiants = append(keptGiants, g)
		}
	}
	giantIPs := 0
	for _, g := range keptGiants {
		giantIPs += g.MeanSize
	}
	webIPs := int(float64(responsive) * 0.741)
	webClusters := (webIPs - giantIPs) * 10 / 21 // mean non-giant size ≈ 2.1
	return Config{
		Name:      "ec2",
		Kind:      websim.EC2Like,
		Days:      93,
		Seed:      seed,
		BaseOctet: 54,
		Regions:   regions,
		Population: PopulationConfig{
			TargetResponsive:     0.237,
			Growth:               0.033,
			SSHOnly:              0.259,
			HTTPOnly:             0.380,
			HTTPSOnly:            0.055,
			HTTPBoth:             0.306,
			HTTPFailRate:         0.006,
			DailyBackgroundChurn: 0.05,
			SingletonFrac:        0.788,
			SmallFrac:            0.208,
			MediumFrac:           0.0028,
			EphemeralFrac:        0.114,
			WebClusters:          webClusters,
			Giants:               keptGiants,
			// Paper dips: Oct 4, Nov 8, Nov 30, Dec 14, Dec 28 with the
			// campaign starting Sep 30 -> day offsets 4, 39, 61, 75, 89.
			DipDays:     []int{4, 39, 61, 75, 89},
			DipClusters: scaleClusters(1945, scaleDiv), // avg of 3198,2767,1449,983,1327
			Malicious: MaliciousConfig{
				SBServices:   51,
				VTType1:      34,
				VTType2:      42,
				VTType3:      22,
				Linchpins:    5,
				LinchpinURLs: 128,
			},
			VPCClusterShare:    0.27,
			RegisteredDNSShare: 0.55,
			SharedServices:     scaleClusters(980, scaleDiv),
		},
	}
}

// DefaultAzureConfig returns an Azure-like cloud at 1/scaleDiv of the
// real October-2013 Azure (495,872 IPs). scaleDiv=16 yields 30,720
// probed IPs. Azure has no VPC distinction and offered only on-demand
// instances.
func DefaultAzureConfig(scaleDiv int, seed int64) Config {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	type row struct {
		name  string
		total int
	}
	rows := []row{
		{"us-east", 140},
		{"us-west", 96},
		{"eu-north", 76},
		{"eu-west", 68},
		{"asia-east", 56},
		{"asia-southeast", 48},
	}
	var regions []RegionConfig
	for _, r := range rows {
		total := r.total / scaleDiv
		if total < 1 {
			total = 1
		}
		regions = append(regions, RegionConfig{Name: r.name, Prefixes22: total})
	}
	total22 := 0
	for _, r := range regions {
		total22 += r.Prefixes22
	}
	totalIPs := total22 * 1024
	responsive := int(float64(totalIPs) * 0.239)
	webIPs := int(float64(responsive) * 0.907) // Table 3 Azure: 45.8+16.5+28.4
	webClusters := webIPs * 10 / 16            // Azure skews even smaller: mean ≈ 1.6
	return Config{
		Name:      "azure",
		Kind:      websim.AzureLike,
		Days:      62,
		Seed:      seed,
		BaseOctet: 137,
		Regions:   regions,
		Population: PopulationConfig{
			TargetResponsive:     0.239,
			Growth:               0.073,
			SSHOnly:              0.093,
			HTTPOnly:             0.458,
			HTTPSOnly:            0.165,
			HTTPBoth:             0.284,
			HTTPFailRate:         0.007,
			DailyBackgroundChurn: 0.045,
			SingletonFrac:        0.862,
			SmallFrac:            0.136,
			MediumFrac:           0.001,
			EphemeralFrac:        0.131,
			WebClusters:          webClusters,
			Giants: []GiantConfig{
				{MeanSize: 220 / scaleDiv, SizeJitter: 0.05, DailyChurn: 0.02, Regions: 2, Category: websim.CategorySaaS},
				{MeanSize: 150 / scaleDiv, SizeJitter: 0.1, DailyChurn: 0.05, Regions: 1, Category: websim.CategoryGame},
			},
			// Azure dips: Nov 29, Dec 7 with campaign start Oct 31 ->
			// day offsets 29 and 37. The paper lost ~1.4% of per-round
			// clusters per dip (372 of 27k).
			DipDays:     []int{29, 37},
			DipClusters: scaleClusters(372, scaleDiv),
			Malicious: MaliciousConfig{
				SBServices: 11, // 13 IPs in 11 clusters; no VT-flagged IPs
			},
			RegisteredDNSShare: 0.6,
			SharedServices:     scaleClusters(980, scaleDiv),
		},
	}
}

func scaleClusters(n, scaleDiv int) int {
	v := n / scaleDiv
	if v < 1 {
		v = 1
	}
	return v
}

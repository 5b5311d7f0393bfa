// Malicious activity: reproduce the §8.2 blacklist study — join WhoWas
// observations with a Safe-Browsing-like URL feed and a
// VirusTotal-like IP report aggregator, measure malicious-IP lifetimes
// (Figure 16), the regional/domain breakdowns (Tables 17/18), the
// three content behaviours, and detection lag (Figure 19). Finally,
// use co-clustering to implicate additional IPs the feeds missed.
//
// Run with:
//
//	go run ./examples/malicious-activity
package main

import (
	"context"
	"fmt"
	"log"

	"whowas/internal/analysis"
	"whowas/internal/blacklist"
	"whowas/internal/cloudapi"
	"whowas/internal/cloudsim"
	"whowas/internal/cluster"
	"whowas/internal/core"
)

func main() {
	platform, err := core.NewPlatform(cloudsim.DefaultEC2Config(512, 99))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("running the full 51-round campaign (a minute or two)...")
	if err := platform.RunCampaign(context.Background(), core.FastCampaign()); err != nil {
		log.Fatal(err)
	}
	if err := platform.RunClustering(cluster.Config{}); err != nil {
		log.Fatal(err)
	}

	// The feeds are built from the simulated cloud's ground truth.
	feeds := blacklist.BuildFeeds(cloudapi.Sim(platform.Cloud))

	// Safe Browsing: URL verdicts per round (Figure 16).
	sb := analysis.SafeBrowsing(platform.Store, feeds.SafeBrowsing)
	fmt.Println()
	fmt.Println(sb.Format("ec2"))

	// VirusTotal: >=2-engine consensus IP reports (Tables 17/18,
	// behaviour types, Figure 19, cluster expansion).
	months := analysis.DefaultMonths(platform.Cloud.Days())
	vt := analysis.VirusTotal(platform.Store, feeds.VirusTotal,
		platform.Clusters, platform.Cloud.RegionOf, months, 2)
	fmt.Println(vt.Format("ec2"))

	// Inspect one malicious IP's history the way an analyst would.
	if ips := feeds.VirusTotal.MaliciousIPs(2); len(ips) > 0 {
		ip := ips[0]
		fmt.Printf("example malicious IP %s history:\n", ip)
		for _, rec := range platform.History(ip) {
			fmt.Printf("  round %2d: status=%d links=%d cluster=%d\n",
				rec.Round, rec.HTTPStatus, len(rec.Links), rec.Cluster)
		}
	}
	_ = context.Background
}

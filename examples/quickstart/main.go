// Quickstart: stand up a small simulated EC2-like cloud, run a few
// WhoWas measurement rounds against it, and ask the platform's
// headline question — "who was at this IP over time?"
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"whowas/internal/cloudsim"
	"whowas/internal/cluster"
	"whowas/internal/core"
	"whowas/internal/store"
)

func main() {
	// A 1:1024-scale EC2: ~16k public IPs across 8 regions.
	platform, err := core.NewPlatform(cloudsim.DefaultEC2Config(1024, 42))
	if err != nil {
		log.Fatal(err)
	}

	// Probe the whole address space for six rounds (campaign days 0,
	// 3, 6, 9, 12, 15), fetching pages from every responsive web IP.
	cfg := core.FastCampaign()
	cfg.RoundDays = []int{0, 3, 6, 9, 12, 15}
	cfg.Observer = func(r core.RoundReport) {
		fmt.Printf("round %d (day %2d): %5d responsive IPs, %4d fetched, scan %s\n",
			r.Round, r.Day, r.Responsive, r.Fetched, r.Scan.Round(time.Millisecond))
	}
	if err := platform.RunCampaign(context.Background(), cfg); err != nil {
		log.Fatal(err)
	}

	// Cluster the <IP, round> observations into web services.
	if err := platform.RunClustering(cluster.Config{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nclustering: %d top-level -> %d second-level -> %d final clusters\n",
		platform.Clusters.TopLevel, platform.Clusters.SecondLevel, platform.Clusters.Final)

	// Pick an interesting IP: a member of the largest cluster.
	var biggest *cluster.Cluster
	for _, c := range platform.Clusters.Clusters {
		if biggest == nil || len(c.Members) > len(biggest.Members) {
			biggest = c
		}
	}
	ip := biggest.Members[0].IP

	// The headline lookup: per-round history of one address.
	fmt.Printf("\nwhowas %s?\n", ip)
	for _, rec := range platform.History(ip) {
		fmt.Printf("  round %d (day %2d): status=%d server=%q title=%q cluster=%d\n",
			rec.Round, rec.Day, rec.HTTPStatus, rec.Server, rec.Title, rec.Cluster)
	}

	// And the whole cluster it belongs to.
	fmt.Printf("\ncluster %d (%q) spans %d observations across %d rounds\n",
		biggest.ID, biggest.Title, len(biggest.Members), len(biggest.Rounds()))
	for _, round := range biggest.Rounds() {
		fmt.Printf("  round %d: %d IPs\n", round, biggest.IPsInRound(round))
	}
	_ = store.PortHTTP // the store package also exposes raw records; see whowas-query
}

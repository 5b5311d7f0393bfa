// Command whowas-cloudd serves a simulated IaaS cloud over real TCP:
// the daemon side of the cloudapi boundary. It hosts an in-process
// cloud (the same cloudsim/netsim composition the whowas CLI builds)
// behind two listening surfaces:
//
//   - a data-plane listener fleet answering scanner and fetcher dials
//     against the simulated network: each client keeps one persistent
//     probe channel per listener (pipelined DIAL frames in, verdicts
//     out) and opens a tunnelled connection only for an open port it
//     actually uses (the protocol is in internal/cloudapi/wire.go);
//   - a JSON-over-HTTP control plane: /healthz, /cloud/info,
//     /cloud/day, /truth/snapshot and /dns/public, plus the standard
//     observability surface (/metrics, /metrics/prom, /debug/pprof/*)
//     with the cloudd.* data-plane counters and gauges — dials per
//     accepted connection and per verdict write say whether the
//     channels are batching.
//
// Usage:
//
//	whowas-cloudd -cloud ec2 -scale 4096 -seed 7
//	whowas -cloud-addr 127.0.0.1:8390 -rounds 3     # in another shell
//	whowas-query cloud -addr 127.0.0.1:8390          # health + census
//
// A campaign against the daemon produces a byte-identical store
// digest to the same campaign run in-process; CI enforces this.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"whowas/internal/cloudapi"
	"whowas/internal/metrics"
)

func main() {
	var (
		cloudName = flag.String("cloud", "ec2", "cloud profile: ec2 or azure")
		scale     = flag.Int("scale", 4096, "address-space scale divisor (larger = smaller cloud)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		addr      = flag.String("addr", "127.0.0.1:8390", "control-plane listen address")
		dataN     = flag.Int("data-listeners", 4, "data-plane listener fleet size")
		dataBase  = flag.Int("data-base-port", 0, "first data-plane port (0 = ephemeral; listener i binds base+i)")
	)
	flag.Parse()
	if err := run(*cloudName, *scale, *seed, *addr, *dataN, *dataBase); err != nil {
		fmt.Fprintf(os.Stderr, "whowas-cloudd: %v\n", err)
		os.Exit(1)
	}
}

func run(cloudName string, scale int, seed int64, addr string, dataN, dataBase int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg, err := cloudapi.ProfileConfig(cloudName, scale, seed)
	if err != nil {
		return err
	}
	cloud, err := cloudapi.NewInProcess(cfg)
	if err != nil {
		return err
	}
	srv := cloudapi.NewServer(cloud, cloudapi.ServerConfig{
		DataListeners: dataN,
		DataBasePort:  dataBase,
		Metrics:       metrics.NewRegistry(),
	})
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	fmt.Printf("whowas-cloudd: cloud %q (%d probed IPs, %d days, seed %d)\n",
		cfg.Name, cloud.Ranges().Total(), cfg.Days, cfg.Seed)
	fmt.Printf("whowas-cloudd: control plane on http://%s\n", bound)
	fmt.Printf("whowas-cloudd: data plane on %s\n", strings.Join(srv.DataAddrs(), " "))

	<-ctx.Done()
	fmt.Println("whowas-cloudd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(sctx)
}

// Command whowas-query answers the platform's headline question over a
// collected store: "who was at this IP, and when?" It also prints the
// aggregate tables the analysis engines produce.
//
// Usage:
//
//	whowas-query -store ec2.whowas -ip 54.0.3.17     # per-round history
//	whowas-query -store ec2.whowas -summary          # Tables 3/4/5/7
//	whowas-query -store ec2.whowas -census           # §8.3 census
//	whowas-query -store ec2.whowas -trackers         # Table 20
//	whowas-query -store-dir ec2.colstore -summary    # columnar store
//	whowas-query -store ec2.whowas -to-dir ec2.colstore  # gob → columnar
//	whowas-query -store-dir ec2.colstore -digest     # identity check
//
// Gob stores open lazily: single-round commands such as -summary and
// -json decode only the rounds they touch instead of loading the whole
// file. -store-dir reads a columnar segment directory written by
// whowas -store-dir, and -to-dir converts either form to one,
// streaming round by round. -digest prints the backend-independent
// store digest.
//
// The trace subcommand reads a span journal written with
// -trace-journal and prints each round's stage latency breakdown plus
// its slowest spans:
//
//	whowas-query trace -journal run.jsonl
//	whowas-query trace -journal run.jsonl -slowest 10
//
// The cloud subcommand interrogates a running whowas-cloudd daemon:
// liveness, configuration, and a ground-truth census of one day:
//
//	whowas-query cloud -addr 127.0.0.1:8390
//	whowas-query cloud -addr 127.0.0.1:8390 -day 30
//
// The fleet subcommand is the live dashboard over a running
// coordinator: per-worker probe throughput, lease TTLs, budget slices,
// shard progress, and the status-history tail (expired leases,
// re-assigned shards, degraded rounds):
//
//	whowas-query fleet 127.0.0.1:8391
//	whowas-query fleet 127.0.0.1:8391 -watch
//	whowas-query fleet 127.0.0.1:8391 -prom        # raw exposition
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"whowas/internal/analysis"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
	"whowas/internal/store/colstore"
	"whowas/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		var sub func([]string) error
		switch os.Args[1] {
		case "trace":
			sub = runTrace
		case "cloud":
			sub = runCloud
		case "fleet":
			sub = runFleet
		}
		if sub != nil {
			if err := sub(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "whowas-query: %v\n", err)
				os.Exit(1)
			}
			return
		}
	}
	var o queryOptions
	flag.StringVar(&o.storePath, "store", "", "path to a store written by whowas -out")
	flag.StringVar(&o.storeDir, "store-dir", "", "path to a columnar segment directory written by whowas -store-dir")
	flag.StringVar(&o.ip, "ip", "", "IP address to look up")
	flag.Int64Var(&o.clusterID, "cluster", 0, "cluster ID to inspect")
	flag.BoolVar(&o.summary, "summary", false, "print usage tables (3/4/5/7)")
	flag.BoolVar(&o.census, "census", false, "print the §8.3 software census")
	flag.BoolVar(&o.trackers, "trackers", false, "print the Table 20 tracker census")
	flag.IntVar(&o.jsonRound, "json", -1, "export the given round as JSON to stdout")
	flag.BoolVar(&o.digest, "digest", false, "print the store digest (identical across gob and columnar backends)")
	flag.StringVar(&o.toDir, "to-dir", "", "convert the store to a columnar segment directory at this path, one round at a time")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "whowas-query: %v\n", err)
		os.Exit(1)
	}
}

// queryOptions collects the store-querying flags (the trace/cloud/fleet
// subcommands parse their own).
type queryOptions struct {
	storePath string
	storeDir  string
	ip        string
	clusterID int64
	summary   bool
	census    bool
	trackers  bool
	jsonRound int
	digest    bool
	toDir     string
}

// openStore opens the requested store without decoding its rounds: gob
// files through the lazy FileBackend (frames are scanned, records stay
// on disk until a command asks for a round), segment directories
// through the columnar backend.
func openStore(o queryOptions) (*store.Store, error) {
	switch {
	case o.storePath != "" && o.storeDir != "":
		return nil, fmt.Errorf("-store and -store-dir are mutually exclusive")
	case o.storeDir != "":
		b, err := colstore.Open(o.storeDir, colstore.Options{})
		if err != nil {
			return nil, err
		}
		if b.NumRounds() == 0 {
			_ = b.Close()
			return nil, fmt.Errorf("%s holds no round segments (not a store directory?)", o.storeDir)
		}
		return store.NewWithBackend(b.CloudName(), b), nil
	case o.storePath != "":
		return store.OpenFile(o.storePath)
	default:
		return nil, fmt.Errorf("-store or -store-dir is required")
	}
}

func run(o queryOptions) error {
	st, err := openStore(o)
	if err != nil {
		return err
	}
	defer func() {
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "whowas-query: closing store: %v\n", err)
		}
	}()
	fmt.Printf("store: cloud=%s rounds=%d\n", st.CloudName, st.NumRounds())

	did := false
	ip, clusterID := o.ip, o.clusterID
	summary, census, trackers, jsonRound := o.summary, o.census, o.trackers, o.jsonRound
	if ip != "" {
		did = true
		addr, err := ipaddr.ParseAddr(ip)
		if err != nil {
			return err
		}
		if err := printHistory(st, addr); err != nil {
			return err
		}
	}
	if summary {
		did = true
		fmt.Println(analysis.Usage(st).Format(st.CloudName))
		fmt.Println(analysis.Ports(st).Format(st.CloudName))
		fmt.Println(analysis.Statuses(st).Format(st.CloudName))
		fmt.Println(analysis.FormatContentTypes(st.CloudName, analysis.ContentTypes(st, 5)))
	}
	if census {
		did = true
		fmt.Println(analysis.Census(st).Format(st.CloudName))
	}
	if trackers {
		did = true
		fmt.Println(analysis.Trackers(st).Format(st.CloudName))
	}
	if clusterID != 0 {
		did = true
		printCluster(st, clusterID)
	}
	if jsonRound >= 0 {
		did = true
		if err := st.ExportJSON(os.Stdout, jsonRound); err != nil {
			return err
		}
	}
	if o.digest {
		did = true
		digest, err := st.Digest()
		if err != nil {
			return err
		}
		fmt.Printf("store digest: %s\n", digest)
	}
	if o.toDir != "" {
		did = true
		if err := convertToDir(st, o.toDir); err != nil {
			return err
		}
		fmt.Printf("columnar store written to %s (%d rounds)\n", o.toDir, st.NumRounds())
	}
	if !did {
		return fmt.Errorf("nothing to do: pass -ip, -cluster, -summary, -census, -trackers, -json, -digest or -to-dir")
	}
	return nil
}

// convertToDir streams the open store into a columnar segment
// directory, one round at a time — a gob file is never fully resident.
func convertToDir(st *store.Store, dir string) error {
	src := st.Backend()
	dst, err := colstore.Open(dir, colstore.Options{CloudName: st.CloudName})
	if err != nil {
		return err
	}
	if n := dst.NumRounds(); n != 0 {
		_ = dst.Close()
		return fmt.Errorf("convert: %s already holds %d rounds", dir, n)
	}
	for i := 0; i < src.NumRounds(); i++ {
		meta, err := src.Meta(i)
		if err != nil {
			_ = dst.Close()
			return err
		}
		recs, err := src.Records(i)
		if err != nil {
			_ = dst.Close()
			return err
		}
		if err := dst.Append(meta, recs); err != nil {
			_ = dst.Close()
			return err
		}
	}
	return dst.Close()
}

// runTrace is the trace subcommand: load a span journal and print the
// per-round flight-recorder view.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	journalPath := fs.String("journal", "", "path to a span journal written with -trace-journal")
	slowest := fs.Int("slowest", 5, "slowest spans to print per round")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *journalPath == "" {
		return fmt.Errorf("trace: -journal is required")
	}
	spans, err := trace.LoadJournal(*journalPath)
	if err != nil {
		return err
	}
	rounds := trace.BreakdownRounds(spans)
	fmt.Printf("journal: %d spans, %d rounds\n", len(spans), len(rounds))
	for _, rb := range rounds {
		suffix := ""
		if rb.Degraded {
			suffix = " [degraded]"
		}
		fmt.Printf("round %2d (day %2d): total %s, %d spans, %d fault-injected%s\n",
			rb.Round, rb.Day, rb.Total.Round(time.Millisecond), rb.Spans, rb.FaultInjected, suffix)
		stages := make([]string, 0, len(rb.Stages))
		for name := range rb.Stages {
			stages = append(stages, name)
		}
		sort.Slice(stages, func(i, j int) bool { return rb.Stages[stages[i]] > rb.Stages[stages[j]] })
		for _, name := range stages {
			d := rb.Stages[name]
			pct := 0.0
			if rb.Total > 0 {
				pct = 100 * float64(d) / float64(rb.Total)
			}
			fmt.Printf("  %-16s %10s  %5.1f%%\n", name, d.Round(time.Millisecond), pct)
		}
		n := *slowest
		if n > len(rb.Slowest) {
			n = len(rb.Slowest)
		}
		for _, s := range rb.Slowest[:n] {
			fmt.Printf("  slow: %-8s %10s  %s\n", s.Name, s.Duration().Round(time.Microsecond), formatAttrs(s))
		}
	}
	return nil
}

// formatAttrs renders a span's attributes sorted by key.
func formatAttrs(s trace.SpanSnapshot) string {
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+s.Attrs[k])
	}
	return strings.Join(parts, " ")
}

// printCluster summarizes one cluster's footprint: per-round IP counts
// and representative features.
func printCluster(st *store.Store, id int64) {
	type roundInfo struct {
		day int
		ips map[ipaddr.Addr]bool
	}
	rounds := map[int]*roundInfo{}
	var sample *store.Record
	total := map[ipaddr.Addr]bool{}
	st.EachRound(func(r *store.Round) bool {
		r.Each(func(rec *store.Record) bool {
			if rec.Cluster != id {
				return true
			}
			ri := rounds[rec.Round]
			if ri == nil {
				ri = &roundInfo{day: rec.Day, ips: map[ipaddr.Addr]bool{}}
				rounds[rec.Round] = ri
			}
			ri.ips[rec.IP] = true
			total[rec.IP] = true
			if sample == nil {
				sample = rec
			}
			return true
		})
		return true
	})
	if sample == nil {
		fmt.Printf("cluster %d: not found\n", id)
		return
	}
	fmt.Printf("cluster %d: title=%q server=%q template=%q ga=%q\n",
		id, sample.Title, sample.Server, sample.Template, sample.AnalyticsID)
	fmt.Printf("  %d unique IPs across %d rounds\n", len(total), len(rounds))
	var order []int
	for r := range rounds {
		order = append(order, r)
	}
	sort.Ints(order)
	for _, r := range order {
		fmt.Printf("  round %2d (day %2d): %d IPs\n", r, rounds[r].day, len(rounds[r].ips))
	}
}

func printHistory(st *store.Store, addr ipaddr.Addr) error {
	hist := st.History(addr)
	if len(hist) == 0 {
		fmt.Printf("%s: never responsive during the campaign\n", addr)
		return nil
	}
	fmt.Printf("history of %s (%d observations):\n", addr, len(hist))
	fmt.Printf("  %-6s %-5s %-6s %-7s %-8s %-24s %-20s %s\n",
		"round", "day", "ports", "status", "cluster", "simhash", "server", "title")
	for _, rec := range hist {
		ports := ""
		if rec.OpenPorts&store.PortHTTP != 0 {
			ports += "80 "
		}
		if rec.OpenPorts&store.PortHTTPS != 0 {
			ports += "443 "
		}
		if rec.OpenPorts&store.PortSSH != 0 {
			ports += "22"
		}
		fmt.Printf("  %-6d %-5d %-6s %-7d %-8d %-24s %-20.20s %.40s\n",
			rec.Round, rec.Day, ports, rec.HTTPStatus, rec.Cluster, rec.Simhash, rec.Server, rec.Title)
	}
	return nil
}

package experiments

import (
	"fmt"
	"os"
	"time"

	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
	"whowas/internal/store/colstore"
)

// StoreBackendBench is one backend's row in the store benchmark: the
// per-record cost of the store frontend's write path (Put, PutBatch,
// EndRound), the query paths (History, Digest), and the campaign's
// on-disk footprint. The digest ties the row to the data it measured.
type StoreBackendBench struct {
	Name         string `json:"name"`
	PutNsOp      int64  `json:"put_ns_op"`
	PutBatchNsOp int64  `json:"put_batch_ns_op"`
	EndRoundNsOp int64  `json:"end_round_ns_op"` // per record of the round
	HistoryNsOp  int64  `json:"history_ns_op"`   // per looked-up IP
	DigestNsOp   int64  `json:"digest_ns_op"`    // per record in the store
	BytesOnDisk  int64  `json:"bytes_on_disk"`
	Digest       string `json:"digest"`
}

// StoreBenchResult is the store engine benchmark's JSON document (the
// whowas-bench -store-bench flag; CI commits it as BENCH_store.json).
// DigestsMatch is the hard correctness gate — the in-memory and
// columnar backends must digest identically — and BytesOnDisk is exact
// (both encodings are deterministic); the ns/op figures are tolerant,
// like every wall-time gate in the repo.
type StoreBenchResult struct {
	Rounds       int                 `json:"rounds"`
	Records      int64               `json:"records"`
	DigestsMatch bool                `json:"digests_match"`
	Backends     []StoreBackendBench `json:"backends"`
}

// benchRecord synthesizes one deterministic record. The field mix
// mirrors a collected campaign: a small server/template vocabulary
// (dictionary-friendly), per-IP titles and analytics IDs (not), and
// sparse link/tracker lists.
func benchRecord(idx, round int) *store.Record {
	ip := ipaddr.Addr(0x0a000000 + uint32(idx)*13)
	servers := []string{"Apache/2.2.22", "nginx/1.4.1", "Microsoft-IIS/7.5", "lighttpd/1.4.31"}
	templates := []string{"", "WordPress 3.5.1", "Drupal 7", ""}
	rec := &store.Record{
		IP:          ip,
		OpenPorts:   store.PortHTTP,
		Fetched:     true,
		Scheme:      "http",
		HTTPStatus:  200,
		ContentType: "text/html",
		BodyLen:     2048 + idx%512,
		Server:      servers[idx%len(servers)],
		Template:    templates[idx%len(templates)],
		Title:       fmt.Sprintf("site-%d", idx),
		HeaderNames: "Content-Type,Date,Server",
		Simhash:     simhash.Fingerprint{Hi: uint32(idx * 2654435761), Lo: uint64(idx)*0x9e3779b97f4a7c15 + uint64(round)},
		Subpages:    idx % 4,
	}
	if idx%5 == 0 {
		rec.Trackers = []string{"google-analytics.com"}
		rec.AnalyticsID = fmt.Sprintf("UA-%d-1", idx%1000)
	}
	if idx%3 == 0 {
		rec.Links = []string{"cdn.example.com", fmt.Sprintf("img-%d.example.com", idx%50)}
	}
	return rec
}

// benchRound synthesizes round r's records: roughly 6/7 of the IP pool
// responds each round, the churn rotating with the round index so
// History sees arrivals and departures.
func benchRound(r, perRound int) []*store.Record {
	recs := make([]*store.Record, 0, perRound)
	for idx := 0; idx < perRound; idx++ {
		if (idx+r)%7 == 0 {
			continue
		}
		recs = append(recs, benchRecord(idx, r))
	}
	return recs
}

// benchStore runs the synthetic campaign against one store and times
// each frontend path. Even rounds insert record-by-record (Put), odd
// rounds in one batch (PutBatch) — the single-process and coordinator
// merge paths respectively.
func benchStore(name string, st *store.Store, rounds, perRound int, bytesOnDisk func() (int64, error)) (StoreBackendBench, error) {
	out := StoreBackendBench{Name: name}
	var putOps, batchOps, endOps int64
	var putNS, batchNS, endNS time.Duration
	for r := 0; r < rounds; r++ {
		recs := benchRound(r, perRound)
		if _, err := st.BeginRound(r * 3); err != nil {
			return out, err
		}
		if r%2 == 0 {
			start := time.Now()
			for _, rec := range recs {
				if err := st.Put(rec); err != nil {
					return out, err
				}
			}
			putNS += time.Since(start)
			putOps += int64(len(recs))
		} else {
			start := time.Now()
			if err := st.PutBatch(recs); err != nil {
				return out, err
			}
			batchNS += time.Since(start)
			batchOps += int64(len(recs))
		}
		st.AddProbed(int64(perRound))
		start := time.Now()
		if err := st.EndRound(); err != nil {
			return out, err
		}
		endNS += time.Since(start)
		endOps += int64(len(recs))
	}

	// Point History queries against the columnar backend pay a full
	// round decode per touched segment (the default two-round cache
	// can't help an IP-ordered scan), so a few hundred probes measure
	// the path without dominating the benchmark's wall time.
	lookups := perRound / 4
	if lookups > 256 {
		lookups = 256
	}
	if lookups < 1 {
		lookups = 1
	}
	start := time.Now()
	for i := 0; i < lookups; i++ {
		ip := ipaddr.Addr(0x0a000000 + uint32(i*4)*13)
		_ = st.History(ip)
	}
	historyNS := time.Since(start)

	start = time.Now()
	digest, err := st.Digest()
	if err != nil {
		return out, err
	}
	digestNS := time.Since(start)

	out.Digest = digest
	out.PutNsOp = perOp(putNS, putOps)
	out.PutBatchNsOp = perOp(batchNS, batchOps)
	out.EndRoundNsOp = perOp(endNS, endOps)
	out.HistoryNsOp = perOp(historyNS, int64(lookups))
	out.DigestNsOp = perOp(digestNS, putOps+batchOps)
	if out.BytesOnDisk, err = bytesOnDisk(); err != nil {
		return out, err
	}
	return out, nil
}

func perOp(d time.Duration, ops int64) int64 {
	if ops <= 0 {
		return 0
	}
	return d.Nanoseconds() / ops
}

// StoreBench runs the same synthetic campaign through both store
// backends and reports their per-op costs, footprints, and digests.
// rounds/perRound <= 0 take defaults sized for a seconds-long run.
func StoreBench(rounds, perRound int) (*StoreBenchResult, error) {
	if rounds <= 0 {
		rounds = 10
	}
	if perRound <= 0 {
		perRound = 5000
	}
	res := &StoreBenchResult{Rounds: rounds}

	memStore := store.New("bench")
	memBench, err := benchStore("memory", memStore, rounds, perRound, func() (int64, error) {
		// The in-memory backend's "disk" form is its Save file.
		var n countWriter
		if err := memStore.Save(&n); err != nil {
			return 0, err
		}
		return int64(n), nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: store bench (memory): %w", err)
	}

	dir, err := os.MkdirTemp("", "whowas-storebench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	backend, err := colstore.Open(dir, colstore.Options{CloudName: "bench"})
	if err != nil {
		return nil, err
	}
	colStore := store.NewWithBackend("bench", backend)
	colBench, err := benchStore("colstore", colStore, rounds, perRound, func() (int64, error) {
		var n int64
		entries, err := os.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			n += info.Size()
		}
		return n, nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: store bench (colstore): %w", err)
	}
	if err := colStore.Close(); err != nil {
		return nil, err
	}

	for r := 0; r < rounds; r++ {
		res.Records += int64(len(benchRound(r, perRound)))
	}
	res.DigestsMatch = memBench.Digest == colBench.Digest
	res.Backends = []StoreBackendBench{memBench, colBench}
	return res, nil
}

// countWriter counts bytes written to it.
type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}

// DefaultBenchTolerance is the allowed fractional latency regression
// against a committed baseline. Wall time varies across hosts and
// runner load far more than across code changes, so the tolerance is
// wide; the digest comparison is the exact gate.
const DefaultBenchTolerance = 0.35

// CompareStoreBench holds a fresh store benchmark to a committed
// baseline (BENCH_store.json): campaign shape, digests, and on-disk
// bytes must match exactly — all three are deterministic — and each
// backend's write-path latency (PutBatch + EndRound, the paths every
// record crosses) must be within tolerance of the baseline's. Returns
// nil when the gate passes.
func CompareStoreBench(fresh, baseline *StoreBenchResult, tolerance float64) error {
	if fresh == nil || baseline == nil {
		return fmt.Errorf("experiments: store gate: missing result")
	}
	if tolerance <= 0 {
		tolerance = DefaultBenchTolerance
	}
	if !fresh.DigestsMatch {
		return fmt.Errorf("experiments: store gate: backend digests diverged")
	}
	if fresh.Rounds != baseline.Rounds || fresh.Records != baseline.Records {
		return fmt.Errorf("experiments: store gate: campaign shape changed: fresh %d rounds/%d records, baseline %d/%d (regenerate the baseline if intentional)",
			fresh.Rounds, fresh.Records, baseline.Rounds, baseline.Records)
	}
	for _, base := range baseline.Backends {
		var got *StoreBackendBench
		for i := range fresh.Backends {
			if fresh.Backends[i].Name == base.Name {
				got = &fresh.Backends[i]
				break
			}
		}
		if got == nil {
			return fmt.Errorf("experiments: store gate: backend %q missing from fresh run", base.Name)
		}
		if got.Digest != base.Digest {
			return fmt.Errorf("experiments: store gate: %s digest drifted from baseline: fresh %s, baseline %s",
				base.Name, got.Digest, base.Digest)
		}
		if got.BytesOnDisk != base.BytesOnDisk {
			return fmt.Errorf("experiments: store gate: %s on-disk bytes drifted: fresh %d, baseline %d (the encoding changed; regenerate the baseline if intentional)",
				base.Name, got.BytesOnDisk, base.BytesOnDisk)
		}
		freshWrite := got.PutBatchNsOp + got.EndRoundNsOp
		baseWrite := base.PutBatchNsOp + base.EndRoundNsOp
		if baseWrite > 0 && float64(freshWrite) > float64(baseWrite)*(1+tolerance) {
			return fmt.Errorf("experiments: store gate: %s write path regressed beyond %.0f%%: fresh %d ns/record, baseline %d ns/record",
				base.Name, 100*tolerance, freshWrite, baseWrite)
		}
	}
	return nil
}

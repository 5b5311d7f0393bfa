package cluster

import (
	"fmt"
	"strings"
	"testing"

	"whowas/internal/ipaddr"
	"whowas/internal/simhash"
	"whowas/internal/store"
	"whowas/internal/store/colstore"
)

// page builds a record with the given level-1 features and content.
func page(ip string, title, server, body string) *store.Record {
	return &store.Record{
		IP:         ipaddr.MustParseAddr(ip),
		OpenPorts:  store.PortHTTP,
		HTTPStatus: 200,
		Title:      title,
		Server:     server,
		Simhash:    simhash.Hash(body),
		BodyLen:    len(body),
	}
}

// buildStore populates rounds from a matrix: rows[round] = records.
func buildStore(t *testing.T, rounds [][]*store.Record) *store.Store {
	t.Helper()
	s := store.New("test")
	for i, recs := range rounds {
		if _, err := s.BeginRound(i * 2); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			cp := *rec
			if err := s.PutBatch([]*store.Record{&cp}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

const bodyA = "alpha web shop selling widgets gadgets and gizmos to everyone around the world every day"
const bodyB = "completely different corporate site with press releases investor relations and careers pages"

func TestSameContentSameCluster(t *testing.T) {
	st := buildStore(t, [][]*store.Record{
		{page("1.0.0.1", "Shop", "nginx", bodyA), page("1.0.0.2", "Shop", "nginx", bodyA)},
		{page("1.0.0.1", "Shop", "nginx", bodyA), page("1.0.0.2", "Shop", "nginx", bodyA)},
	})
	res, err := Run(st, Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != 1 {
		t.Fatalf("Final = %d, want 1 (res=%+v)", res.Final, res)
	}
	var ids []int64
	st.EachRound(func(r *store.Round) bool {
		r.Each(func(rec *store.Record) bool {
			ids = append(ids, rec.Cluster)
			return true
		})
		return true
	})
	for _, id := range ids {
		if id != ids[0] || id == 0 {
			t.Fatalf("cluster ids = %v, want all equal nonzero", ids)
		}
	}
}

func TestDifferentTitlesSplitAtLevel1(t *testing.T) {
	st := buildStore(t, [][]*store.Record{
		{page("1.0.0.1", "Shop A", "nginx", bodyA), page("1.0.0.2", "Shop B", "nginx", bodyA)},
	})
	res, err := Run(st, Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TopLevel != 2 || res.Final != 2 {
		t.Errorf("TopLevel=%d Final=%d, want 2/2", res.TopLevel, res.Final)
	}
}

func TestDistantSimhashSplitsAtLevel2(t *testing.T) {
	st := buildStore(t, [][]*store.Record{
		{page("1.0.0.1", "Shop", "nginx", bodyA), page("1.0.0.2", "Shop", "nginx", bodyB)},
	})
	res, err := Run(st, Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TopLevel != 1 {
		t.Errorf("TopLevel = %d, want 1", res.TopLevel)
	}
	if res.SecondLevel != 2 || res.Final != 2 {
		t.Errorf("SecondLevel=%d Final=%d, want 2/2", res.SecondLevel, res.Final)
	}
}

func TestNearDuplicateStaysTogether(t *testing.T) {
	// Bodies at small Hamming distance must share a level-2 cluster.
	body2 := bodyA + " minor footer tweak"
	d := simhash.Distance(simhash.Hash(bodyA), simhash.Hash(body2))
	if d == 0 || d > 8 {
		t.Skipf("test bodies at distance %d, want 1..8", d)
	}
	st := buildStore(t, [][]*store.Record{
		{page("1.0.0.1", "Shop", "nginx", bodyA), page("1.0.0.2", "Shop", "nginx", body2)},
	})
	res, err := Run(st, Config{Threshold: d})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != 1 {
		t.Errorf("Final = %d, want 1 (distance %d)", res.Final, d)
	}
}

func TestMergeHeuristicAcrossRevisions(t *testing.T) {
	// One IP revises its page: title unchanged, simhash moves <= 3
	// bits between consecutive rounds but ends far from the start, and
	// the server header changes at the revision — splitting level 1.
	// The merge heuristic must rejoin the two clusters via the shared
	// IP + small simhash distance + equal title.
	h0 := simhash.Hash(bodyA)
	h1 := h0.FlipBits(0, 5) // distance 2 from h0
	recA := page("1.0.0.1", "Shop", "nginx/1.0", bodyA)
	recB := page("1.0.0.1", "Shop", "nginx/1.1", bodyA)
	recB.Simhash = h1
	st := buildStore(t, [][]*store.Record{
		{recA},
		{recB},
	})
	res, err := Run(st, Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SecondLevel != 2 {
		t.Fatalf("SecondLevel = %d, want 2 (split by server)", res.SecondLevel)
	}
	if res.Final != 1 {
		t.Errorf("Final = %d, want 1 after merge", res.Final)
	}
}

func TestMergeRequiresSharedFeature(t *testing.T) {
	// Same IP, close simhashes, but every level-1 feature differs:
	// likely an ownership change; must NOT merge.
	h0 := simhash.Hash(bodyA)
	recA := page("1.0.0.1", "Shop A", "nginx", bodyA)
	recB := page("1.0.0.1", "Shop B", "apache", bodyA)
	recB.Simhash = h0.FlipBits(7)
	st := buildStore(t, [][]*store.Record{{recA}, {recB}})
	res, err := Run(st, Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != 2 {
		t.Errorf("Final = %d, want 2 (no shared feature)", res.Final)
	}
}

func TestMergeRequiresCloseSimhash(t *testing.T) {
	// Same IP, same title, but content changed completely: the paper's
	// heuristic requires simhashes within 3 bits; distant pages stay
	// separate clusters.
	recA := page("1.0.0.1", "Shop", "nginx", bodyA)
	recB := page("1.0.0.1", "Shop", "apache", bodyB)
	st := buildStore(t, [][]*store.Record{{recA}, {recB}})
	res, err := Run(st, Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != 2 {
		t.Errorf("Final = %d, want 2 (distant simhashes)", res.Final)
	}
}

func TestCleaningErrorTitles(t *testing.T) {
	st := buildStore(t, [][]*store.Record{
		{
			page("1.0.0.1", "404 Not Found", "nginx", "<h1>Not Found</h1>"),
			page("1.0.0.2", "Error 500", "nginx", "<h1>boom</h1>"),
			page("1.0.0.3", "Good Site", "nginx", bodyA),
		},
	})
	res, err := Run(st, Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final != 1 {
		t.Errorf("Final = %d, want 1 after cleaning error titles", res.Final)
	}
	if len(res.RemovedClusters) != 2 {
		t.Errorf("Removed = %d, want 2", len(res.RemovedClusters))
	}
	for _, c := range res.RemovedClusters {
		if c.RemovedReason != "error-title" {
			t.Errorf("RemovedReason = %q", c.RemovedReason)
		}
	}
	// Cleaned records carry Cluster = 0.
	st.Round(0).Each(func(rec *store.Record) bool {
		if strings.Contains(rec.Title, "Found") && rec.Cluster != 0 {
			t.Errorf("cleaned record still assigned cluster %d", rec.Cluster)
		}
		return true
	})
}

func TestCleaningDefaultPagesOnlyWhenLarge(t *testing.T) {
	// A large default-page cluster (>20 avg IPs) is removed; a small
	// one survives.
	var largeRecs []*store.Record
	for i := 0; i < 25; i++ {
		largeRecs = append(largeRecs, page(fmt.Sprintf("2.0.0.%d", i+1), "Welcome-Apache", "Apache", "It works"))
	}
	smallRec := page("3.0.0.1", "Welcome to nginx!", "nginx", "welcome nginx page")
	st := buildStore(t, [][]*store.Record{append(largeRecs, smallRec)})
	res, err := Run(st, Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sawSmall bool
	for _, c := range res.Clusters {
		if strings.Contains(strings.ToLower(c.Title), "nginx") {
			sawSmall = true
		}
		if strings.Contains(strings.ToLower(c.Title), "apache") {
			t.Error("large default-page cluster survived cleaning")
		}
	}
	if !sawSmall {
		t.Error("small default-page cluster was removed")
	}
	if len(res.RemovedClusters) != 1 || res.RemovedClusters[0].RemovedReason != "default-page" {
		t.Errorf("RemovedClusters = %+v", res.RemovedClusters)
	}
}

func TestEmptyStoreErrors(t *testing.T) {
	st := store.New("empty")
	if _, err := Run(st, Config{Threshold: 3}); err == nil {
		t.Error("Run on empty store succeeded")
	}
}

func TestGapThresholdTuning(t *testing.T) {
	// Build a store with clear cluster structure: three page families,
	// members within each family at distance <= 2, families far apart.
	bodies := []string{bodyA, bodyB, "third family of pages entirely about video streaming and live sports events"}
	var recs []*store.Record
	n := 0
	for f, b := range bodies {
		base := simhash.Hash(b)
		for i := 0; i < 6; i++ {
			rec := page(fmt.Sprintf("9.0.%d.%d", f, i+1), "Mixed", "nginx", b)
			rec.Simhash = base.FlipBits(i % 3) // distance <= 1 within family
			if i%3 == 0 {
				rec.Simhash = base
			}
			recs = append(recs, rec)
			n++
		}
	}
	st := buildStore(t, [][]*store.Record{recs})
	res, err := Run(st, Config{}) // Threshold 0 -> gap statistic
	if err != nil {
		t.Fatal(err)
	}
	if res.Threshold < 1 || res.Threshold > 12 {
		t.Errorf("tuned threshold = %d", res.Threshold)
	}
	if res.Final != 3 {
		t.Errorf("Final = %d, want 3 families (threshold %d)", res.Final, res.Threshold)
	}
}

func TestClusterAccessors(t *testing.T) {
	st := buildStore(t, [][]*store.Record{
		{page("1.0.0.1", "Shop", "nginx", bodyA), page("1.0.0.2", "Shop", "nginx", bodyA)},
		{page("1.0.0.1", "Shop", "nginx", bodyA)},
	})
	res, err := Run(st, Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Clusters[0]
	rounds := c.Rounds()
	if len(rounds) != 2 || rounds[0] != 0 || rounds[1] != 1 {
		t.Errorf("Rounds = %v", rounds)
	}
	if c.IPsInRound(0) != 2 || c.IPsInRound(1) != 1 {
		t.Errorf("IPsInRound = %d,%d", c.IPsInRound(0), c.IPsInRound(1))
	}
	if res.ByID(c.ID) != c {
		t.Error("ByID failed")
	}
	if res.ByID(9999) != nil {
		t.Error("ByID(9999) non-nil")
	}
}

func TestDeterministicClusterIDs(t *testing.T) {
	build := func() *Result {
		st := buildStore(t, [][]*store.Record{
			{
				page("1.0.0.1", "A", "nginx", bodyA),
				page("1.0.0.2", "B", "nginx", bodyB),
				page("1.0.0.3", "C", "apache", bodyA+" extra"),
			},
		})
		res, err := Run(st, Config{Threshold: 3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := build(), build()
	if a.Final != b.Final {
		t.Fatalf("Final differs: %d vs %d", a.Final, b.Final)
	}
	for i := range a.Clusters {
		if a.Clusters[i].Title != b.Clusters[i].Title || a.Clusters[i].ID != b.Clusters[i].ID {
			t.Errorf("cluster %d differs: %q/%d vs %q/%d", i,
				a.Clusters[i].Title, a.Clusters[i].ID, b.Clusters[i].Title, b.Clusters[i].ID)
		}
	}
}

func TestUnavailableRecordsExcluded(t *testing.T) {
	good := page("1.0.0.1", "Shop", "nginx", bodyA)
	sshOnly := &store.Record{IP: ipaddr.MustParseAddr("1.0.0.9"), OpenPorts: store.PortSSH}
	st := buildStore(t, [][]*store.Record{{good, sshOnly}})
	res, err := Run(st, Config{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		for _, rec := range c.Records {
			if !rec.Available() {
				t.Error("unavailable record clustered")
			}
		}
	}
	_ = res
}

// TestRunPersistsThroughColumnarBackend: clustering's write-back must
// reach the disk — a lazy backend hands every reader its own decoded
// records, so labels that do not go through UpdateRounds' Rewrite are
// lost, and only rewritten segments reproduce the post-clustering
// digest after a reopen.
func TestRunPersistsThroughColumnarBackend(t *testing.T) {
	rounds := [][]*store.Record{
		{page("1.0.0.1", "Shop", "nginx", bodyA), page("1.0.0.2", "Shop", "nginx", bodyA)},
		{page("1.0.0.1", "Shop", "nginx", bodyA), page("1.0.0.3", "Corp", "apache", bodyB)},
	}
	mem := buildStore(t, rounds)

	dir := t.TempDir()
	backend, err := colstore.Open(dir, colstore.Options{CloudName: "test"})
	if err != nil {
		t.Fatal(err)
	}
	col := store.NewWithBackend("test", backend)
	for i, recs := range rounds {
		if _, err := col.BeginRound(i * 2); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			cp := *rec
			if err := col.PutBatch([]*store.Record{&cp}); err != nil {
				t.Fatal(err)
			}
		}
		if err := col.EndRound(); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := Run(mem, Config{Threshold: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(col, Config{Threshold: 3}); err != nil {
		t.Fatal(err)
	}
	want, err := mem.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := col.Digest(); err != nil || got != want {
		t.Fatalf("columnar digest diverges before reopen: got %s (%v), want %s", got, err, want)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk alone.
	reBackend, err := colstore.Open(dir, colstore.Options{CloudName: "test"})
	if err != nil {
		t.Fatal(err)
	}
	re := store.NewWithBackend("test", reBackend)
	defer func() {
		if err := re.Close(); err != nil {
			t.Error(err)
		}
	}()
	got, err := re.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("on-disk digest after clustering = %s, want %s (write-back skipped on cached rounds)", got, want)
	}
}

func BenchmarkRun1000Records(b *testing.B) {
	var rounds [][]*store.Record
	for r := 0; r < 5; r++ {
		var recs []*store.Record
		for i := 0; i < 200; i++ {
			family := i % 40
			body := fmt.Sprintf("family %d content with shared words plus member specific token %d", family, i%3)
			recs = append(recs, page(fmt.Sprintf("7.%d.%d.%d", r, family, i), fmt.Sprintf("Site %d", family), "nginx", body))
		}
		rounds = append(rounds, recs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stCopy := store.New("bench")
		for ri, recs := range rounds {
			_, _ = stCopy.BeginRound(ri)
			for _, rec := range recs {
				cp := *rec
				_ = stCopy.PutBatch([]*store.Record{&cp})
			}
			_ = stCopy.EndRound()
		}
		b.StartTimer()
		if _, err := Run(stCopy, Config{Threshold: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// Package store is WhoWas's measurement database. The paper used MySQL
// with one table per round of scanning; this package provides the same
// organization as an embedded, concurrency-safe, persistable store:
// rounds of per-IP records, plus the per-IP history lookup ("whowas
// 1.2.3.4") that gives the platform its name.
//
// The Store type is a thin frontend: it owns the open round's write
// path, finalization (IP-sort, body drop), metrics and digests, and
// delegates finalized-round persistence to a Backend (backend.go).
// The default backend keeps everything in memory;
// internal/store/colstore persists append-only columnar segments so a
// campaign's memory stays bounded by one round, not the whole history.
// Save/Digest/ExportJSON/History are byte-identical whichever backend
// collected the data.
//
// Unresponsive IPs are not stored — a record's absence for a probed IP
// means the IP did not answer any probe that round, which keeps the
// store proportional to the responsive population rather than the
// address space.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/simhash"
	"whowas/internal/trace"
)

// Port bits for Record.OpenPorts.
const (
	PortSSH   = 1 << 0 // 22/tcp answered
	PortHTTP  = 1 << 1 // 80/tcp answered
	PortHTTPS = 1 << 2 // 443/tcp answered
)

// Record is one IP's observation in one round: probe results, the HTTP
// exchange, and the features extracted from the fetched page (§4's ten
// features plus links and tracker matches).
// The json tags pin the coord submit-wire shape (a ShardResult carries
// records); Save/Digest use gob, which ignores tags, so the on-disk
// format and the digest invariant are untouched by them.
type Record struct {
	IP    ipaddr.Addr `json:"ip"`
	Round int         `json:"round"` // round index, 0-based
	Day   int         `json:"day"`   // campaign day offset of the round

	OpenPorts uint8 `json:"open_ports"` // PortSSH|PortHTTP|PortHTTPS bits

	// HTTP exchange.
	Fetched      bool   `json:"fetched"`       // a fetch was attempted
	RobotsDenied bool   `json:"robots_denied"` // robots.txt disallowed "/"; no page GET was made
	Scheme       string `json:"scheme"`        // "http" or "https"
	HTTPStatus   int    `json:"http_status"`   // 0 when no HTTP response was obtained
	FetchErr     string `json:"fetch_err"`     // error class when the exchange failed
	ContentType  string `json:"content_type"`
	BodyLen      int    `json:"body_len"` // feature 4: length of returned body
	Body         string `json:"body"`     // raw body: no producer sets it and EndRound drops it; removed with the store re-baseline (ROADMAP item 6(a))

	// Extracted features.
	PoweredBy   string              `json:"powered_by"`   // feature 1: x-powered-by header
	Description string              `json:"description"`  // feature 2: meta description
	HeaderNames string              `json:"header_names"` // feature 3: sorted header-name string, "#"-joined
	Title       string              `json:"title"`        // feature 5
	Template    string              `json:"template"`     // feature 6: meta generator (web template)
	Server      string              `json:"server"`       // feature 7: Server header
	Keywords    string              `json:"keywords"`     // feature 8
	AnalyticsID string              `json:"analytics_id"` // feature 9: Google Analytics ID
	Simhash     simhash.Fingerprint `json:"simhash"`      // feature 10

	Links    []string `json:"links"`    // absolute URLs found in the page (malicious-URL analysis)
	Trackers []string `json:"trackers"` // third-party tracker names matched (Table 20)
	Subpages int      `json:"subpages"` // always 0: the fetcher follows no link; kept while the store formats are pinned

	// Labels joined after collection.
	VPC     bool  `json:"vpc"`     // cloud-cartography label
	Cluster int64 `json:"cluster"` // final cluster ID; 0 = unassigned
}

// Responsive reports whether the IP answered any probe (§4).
func (r *Record) Responsive() bool { return r.OpenPorts != 0 }

// WebOpen reports whether a web port answered.
func (r *Record) WebOpen() bool { return r.OpenPorts&(PortHTTP|PortHTTPS) != 0 }

// Available reports whether the HTTP(S) request for the URL succeeded
// (§4: unresponsive IPs are also unavailable).
func (r *Record) Available() bool { return r.HTTPStatus != 0 }

// Round is one round of scanning: records keyed by IP. While the
// round is open, records live in one map under one mutex — every
// pipeline lane hands the store its records in one PutBatch, so the
// lock is taken a handful of times per round; finalize builds the
// IP-sorted index, so the persisted form — and therefore the store
// digest — is byte-identical whatever order the lanes wrote in.
// Finalized rounds handed out by Store.Round/Scan/EachRound are
// read-mostly views over the backend's records; mutations to their
// records persist only through Store.UpdateRounds.
type Round struct {
	Index  int
	Day    int
	Probed int64 // how many IPs were probed this round
	// Degraded marks a round that hit its campaign deadline and was
	// finalized with the records collected so far; its counts
	// undercount the true population and churn analyses should treat
	// it accordingly.
	Degraded bool
	// mu guards records while the round is open. records is set by
	// BeginRound and stays nil on the backend views roundOf builds,
	// whose reads go lock-free to sorted.
	mu      sync.Mutex
	records map[ipaddr.Addr]*Record
	sorted  []*Record // built on finalize, ascending by IP
	final   bool
}

// Get returns the record for an IP, or nil (unresponsive). On a
// BeginRound handle it consults the write map; on a backend view it
// binary searches the IP-sorted index.
func (r *Round) Get(ip ipaddr.Addr) *Record {
	if r.records != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.records[ip]
	}
	return searchIP(r.sorted, ip)
}

// searchIP binary searches an IP-sorted record slice.
func searchIP(recs []*Record, ip ipaddr.Addr) *Record {
	i := sort.Search(len(recs), func(i int) bool { return recs[i].IP >= ip })
	if i < len(recs) && recs[i].IP == ip {
		return recs[i]
	}
	return nil
}

// Len returns the number of records (responsive IPs).
func (r *Round) Len() int {
	if r.records != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.records)
	}
	return len(r.sorted)
}

// Records returns the round's records sorted by IP. Finalize must have
// been called (Store.EndRound does).
func (r *Round) Records() []*Record {
	if !r.final {
		panic("store: Records called before round finalized")
	}
	return r.sorted
}

// Each visits records in IP order.
func (r *Round) Each(fn func(*Record) bool) {
	for _, rec := range r.Records() {
		if !fn(rec) {
			return
		}
	}
}

// finalize sorts the record index. Records are keyed by IP and each IP
// is written by exactly one scan, so the sorted index — and the Save
// encoding derived from it — does not depend on the order the lanes
// wrote in. The caller holds the store's write lock, which excludes
// every writer.
func (r *Round) finalize() {
	r.sorted = make([]*Record, 0, len(r.records))
	for _, rec := range r.records {
		r.sorted = append(r.sorted, rec)
	}
	sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i].IP < r.sorted[j].IP })
	r.final = true
}

// meta extracts the round's Backend metadata.
func (r *Round) meta() RoundMeta {
	return RoundMeta{Index: r.Index, Day: r.Day, Probed: r.Probed, Degraded: r.Degraded, Records: len(r.sorted)}
}

// roundOf builds the frontend view of a persisted round.
func roundOf(meta RoundMeta, recs []*Record) *Round {
	return &Round{Index: meta.Index, Day: meta.Day, Probed: meta.Probed, Degraded: meta.Degraded, sorted: recs, final: true}
}

// Store holds all rounds of one cloud's campaign: the open round's
// write path in front, a Backend for the finalized history behind.
type Store struct {
	mu        sync.RWMutex
	CloudName string
	backend   Backend
	open      *Round
	// idleBufs is the buffer pair the last Scan to return decoded into;
	// the next Scan takes it (scanMu guards the hand-over), so no two
	// Scans share a pair. A Scan that finds it taken makes its own.
	scanMu   sync.Mutex
	idleBufs *[2]RoundBuf
	// Instrumentation handles (SetMetrics); nil (no-op) by default.
	mRecords  *metrics.Counter   // records inserted
	mRounds   *metrics.Counter   // rounds finalized
	mScanWait *metrics.Histogram // a Scan's wait for each round's read
	tracer    *trace.Tracer      // SetTracer; nil no-ops
}

// SetMetrics attaches an instrumentation registry: store.records,
// store.rounds and store.scan_wait, how long each Scan waited for each
// round's read; a fold that mostly waits is decode-bound. Call before
// the campaign starts; a nil registry detaches.
func (s *Store) SetMetrics(r *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mRecords = r.Counter("store.records")
	s.mRounds = r.Counter("store.rounds")
	s.mScanWait = r.Histogram("store.scan_wait")
}

// SetTracer attaches a tracer: every EndRound emits a
// "store.finalize" span tagged with the round index so journal
// analysis can join it onto the round's span tree. A nil tracer
// detaches.
func (s *Store) SetTracer(t *trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

// New creates an empty store for a named cloud over the default
// in-memory backend.
func New(cloudName string) *Store {
	return NewWithBackend(cloudName, NewMemoryBackend())
}

// NewWithBackend creates a store over an explicit backend. The backend
// may already hold rounds (a reopened columnar directory, a saved
// snapshot): the store picks up where it left off.
func NewWithBackend(cloudName string, b Backend) *Store {
	return &Store{CloudName: cloudName, backend: b}
}

// Backend returns the store's backend (for stats and tests).
func (s *Store) Backend() Backend {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backend
}

// Close releases the backend's resources. A store with an open round
// cannot be closed (End or Abort it first).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open != nil {
		return fmt.Errorf("store: close with round %d open", s.open.Index)
	}
	return s.backend.Close()
}

// BeginRound opens a new round at the given campaign day. Only one
// round may be open at a time. The returned handle stays readable
// after EndRound (it keeps the finalized index) — the round loop reads
// its counters back.
func (s *Store) BeginRound(day int) (*Round, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open != nil {
		return nil, fmt.Errorf("store: round %d still open", s.open.Index)
	}
	if n := s.backend.NumRounds(); n > 0 {
		last, err := s.backend.Meta(n - 1)
		if err != nil {
			return nil, err
		}
		if last.Day >= day {
			return nil, fmt.Errorf("store: day %d not after previous round day %d", day, last.Day)
		}
	}
	r := &Round{
		Index:   s.backend.NumRounds(),
		Day:     day,
		records: make(map[ipaddr.Addr]*Record),
	}
	s.open = r
	return r, nil
}

// PutBatch records a batch of observations in the open round under a
// single round-lock acquisition, stamping each with the round's index
// and day; a later record for the same IP replaces an earlier one.
// Every lane's records — an in-process lane's or a worker's shard
// submission — arrive through it. A batch holding a nil record is
// refused whole, before any lock is taken. Safe for concurrent use: the
// store mutex is taken in read mode (it excludes only
// Begin/End/AbortRound) and writers serialize on the round's own.
func (s *Store) PutBatch(recs []*Record) error {
	if len(recs) == 0 {
		return nil
	}
	if slices.Contains(recs, nil) {
		return fmt.Errorf("store: batch holds a nil record")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.open
	if r == nil {
		return fmt.Errorf("store: no open round")
	}
	r.mu.Lock()
	for _, rec := range recs {
		rec.Round = r.Index
		rec.Day = r.Day
		r.records[rec.IP] = rec
	}
	r.mu.Unlock()
	s.mRecords.Add(int64(len(recs)))
	return nil
}

// MarkDegraded flags the open round as degraded: the round exceeded
// its deadline and holds only the records collected before it fired.
// The flag survives EndRound and Save/OpenFile.
func (s *Store) MarkDegraded() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open == nil {
		return fmt.Errorf("store: no open round")
	}
	s.open.Degraded = true
	return nil
}

// AddProbed counts probed IPs for the open round (the churn
// denominators of Figure 9 are fractions of all probed IPs).
func (s *Store) AddProbed(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open != nil {
		s.open.Probed += n
	}
}

// EndRound finalizes the open round — sort by IP, drop raw bodies —
// and appends it to the backend. The paper stored full content
// (900 GB); campaigns here extract features first and drop bodies to
// keep the store proportional to features. On a backend failure the
// round is discarded (the store never wedges on a half-persisted
// round) and the error returned.
func (s *Store) EndRound() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open == nil {
		return fmt.Errorf("store: no open round")
	}
	// The span is parentless (the store cannot see the round's root
	// span); the "round" attribute lets trace analysis join it.
	sp := s.tracer.Start("store.finalize", nil,
		trace.Int("round", s.open.Index),
		trace.Int("records", s.open.Len()),
		trace.Bool("degraded", s.open.Degraded),
	)
	s.open.finalize()
	for _, rec := range s.open.sorted {
		rec.Body = ""
	}
	r := s.open
	s.open = nil
	if err := s.backend.Append(r.meta(), r.sorted); err != nil {
		sp.End()
		return fmt.Errorf("store: persisting round %d: %w", r.Index, err)
	}
	s.mRounds.Inc()
	sp.End()
	return nil
}

// AbortRound discards the open round and everything it collected. The
// campaign loop calls it when a round fails hard (cancellation, a
// store error) so the store is left holding only finalized rounds —
// still saveable and digestable, and ready for a future BeginRound.
func (s *Store) AbortRound() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open == nil {
		return fmt.Errorf("store: no open round")
	}
	s.open = nil
	return nil
}

// roundAt builds the frontend view of finalized round i with at least
// the fields in f filled, decoded into buf when it is not nil (see
// Backend's buffer contract). The caller holds s.mu (read or write). A
// backend read failure here is a broken integrity contract (backends
// validate at open), not an I/O condition — it panics rather than
// forcing an error return onto every read-path signature.
func (s *Store) roundAt(i int, f Fields, buf *RoundBuf) *Round {
	meta, err := s.backend.Meta(i)
	if err == nil {
		var recs []*Record
		recs, err = s.backend.Read(i, f, buf)
		if err == nil {
			return roundOf(meta, recs)
		}
	}
	panic(fmt.Sprintf("store: reading round %d: %v (backend integrity contract violated)", i, err))
}

// Metas returns every finalized round's metadata in order; no record
// is read.
func (s *Store) Metas() []RoundMeta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RoundMeta, s.backend.NumRounds())
	for i := range out {
		meta, err := s.backend.Meta(i)
		if err != nil {
			panic(fmt.Sprintf("store: round %d meta: %v (backend integrity contract violated)", i, err))
		}
		out[i] = meta
	}
	return out
}

// NumRounds returns the finalized round count.
func (s *Store) NumRounds() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backend.NumRounds()
}

// Round returns a view of round i, or nil. Its records are the
// caller's: no later read reuses them.
func (s *Store) Round(i int) *Round { return s.view(i, AllFields, nil) }

// view returns round i with at least the fields in f filled, decoded
// into buf when it is not nil, or nil. The deferred unlock releases the
// read lock even when roundAt panics.
func (s *Store) view(i int, f Fields, buf *RoundBuf) *Round {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i < 0 || i >= s.backend.NumRounds() {
		return nil
	}
	return s.roundAt(i, f, buf)
}

// Scan streams the finalized rounds in order, one at a time, with at
// least the fields in f filled (see Backend's fields contract): on
// colstore only the columns f names are decoded, and a full-campaign
// fold runs in two rounds' memory. fn returns false to stop.
//
// Scan reads ahead: before it calls fn with round i it starts the read
// of round i+1 on a helper goroutine, into the buffer that held round
// i-1, so the next round decodes while the fold runs on this one. Scan
// hands its two buffers to the next Scan. So a round handed to fn, and
// its records, stay valid only until fn returns: a fold that compares a
// round with the one before it must copy out what it compares, and
// anything it keeps longer (a string field may be kept as it is:
// strings are never reused). A narrowed round's records also must not
// outlive the analysis that asked for them, and fn must not count on
// seeing its own rewrite (UpdateRounds) of the next round.
//
// A backend failure in the read-ahead panics on the caller's goroutine,
// as one in Round does. When fn returns false or panics, Scan waits for
// the read in flight before it returns: no goroutine outlives it.
func (s *Store) Scan(f Fields, fn func(*Round) bool) {
	s.scanMu.Lock()
	bufs := s.idleBufs
	s.idleBufs = nil
	s.scanMu.Unlock()
	if bufs == nil {
		bufs = new([2]RoundBuf)
	}
	s.mu.RLock()
	wait := s.mScanWait
	s.mu.RUnlock()
	// The helper reads each round next names into its buffer and sends
	// it on read; it ends when next is closed, and closes read then.
	next, read := make(chan int, 1), make(chan scanRead, 1)
	go func() {
		defer close(read)
		for i := range next {
			read <- s.readRound(i, f, &bufs[i%2])
		}
	}()
	defer func() {
		close(next)
		for range read { // the read in flight, if fn stopped the scan
		}
		s.scanMu.Lock()
		s.idleBufs = bufs
		s.scanMu.Unlock()
	}()
	next <- 0
	for i := 1; ; i++ {
		var start time.Time
		if wait != nil { // an uninstrumented store skips the clock
			start = time.Now()
		}
		got := <-read
		if got.fault != nil {
			panic(got.fault)
		}
		if got.r == nil {
			return
		}
		if wait != nil {
			wait.Observe(time.Since(start))
		}
		next <- i
		if !fn(got.r) {
			return
		}
	}
}

// scanRead is one of Scan's reads: the round (nil past the last), or
// what the read panicked with.
type scanRead struct {
	r     *Round
	fault any
}

// readRound is view for Scan's helper goroutine: a panic is returned,
// for Scan to raise on its caller's goroutine, not raised. view's
// deferred unlock has run by then.
func (s *Store) readRound(i int, f Fields, buf *RoundBuf) (got scanRead) {
	defer func() { got.fault = recover() }()
	got.r = s.view(i, f, buf)
	return got
}

// EachRound streams whole rounds: Scan(AllFields, fn).
func (s *Store) EachRound(fn func(*Round) bool) { s.Scan(AllFields, fn) }

// UpdateRounds applies fn to the named finalized rounds, in the order
// given, and persists the rounds fn reports changed (return true) back
// to the backend; no other round is read. It is the one sanctioned way
// to mutate stored records — the analysis joins (cartography's VPC
// labels, clustering's final IDs) write back through it; mutating
// records obtained from Round/Scan/EachRound is lost on colstore.
// fn runs under the store's write lock and must not call other Store
// methods.
func (s *Store) UpdateRounds(rounds []int, fn func(*Round) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range rounds {
		if i < 0 || i >= s.backend.NumRounds() {
			return fmt.Errorf("store: no round %d", i)
		}
		r := s.roundAt(i, AllFields, nil)
		if !fn(r) {
			continue
		}
		if err := s.backend.Rewrite(i, r.meta(), r.sorted); err != nil {
			return fmt.Errorf("store: rewriting round %d: %w", i, err)
		}
	}
	return nil
}

// History returns every record for an IP across rounds, in round
// order — the platform's core "whowas this IP" lookup.
func (s *Store) History(ip ipaddr.Addr) []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out, err := s.backend.History(ip)
	if err != nil {
		panic(fmt.Sprintf("store: history of %s: %v (backend integrity contract violated)", ip, err))
	}
	return out
}

// The framed save format: a magic string, then length-prefixed frames,
// each an independent gob stream — a header frame, then a meta frame
// and a records frame per round. The encoding is fully deterministic:
// identical data produces identical bytes, whatever backend or lane
// count collected it. The frames stay because the store digest is
// defined over these bytes, not so that a reader can skip rounds:
// OpenFile decodes every one.
const saveMagic = "WHOWAS2\n"

// saveVersion is the header's format version.
const saveVersion = 2

// saveHeader is the first frame.
type saveHeader struct {
	Version   int
	CloudName string
	Rounds    int
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// gobFrame encodes v as a standalone gob stream and frames it.
func gobFrame(w io.Writer, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	return writeFrame(w, buf.Bytes())
}

// Save writes the store (finalized rounds only) in the framed format.
// Rounds are streamed from the backend one at a time, so saving a
// columnar store never materializes the whole campaign.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.backend.NumRounds()
	if _, err := io.WriteString(w, saveMagic); err != nil {
		return err
	}
	if err := gobFrame(w, &saveHeader{Version: saveVersion, CloudName: s.CloudName, Rounds: n}); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		meta, err := s.backend.Meta(i)
		if err != nil {
			return err
		}
		recs, err := s.backend.Read(i, AllFields, nil)
		if err != nil {
			return err
		}
		if err := gobFrame(w, &meta); err != nil {
			return err
		}
		flat := make([]Record, len(recs))
		for j, rec := range recs {
			flat[j] = *rec
		}
		if err := gobFrame(w, flat); err != nil {
			return err
		}
	}
	return nil
}

// Digest returns the hex SHA-256 of the store's Save encoding. Save
// writes rounds and records in sorted, deterministic order, so two
// campaigns that collected identical data digest identically —
// whatever the shard count, worker count, transport, or storage
// backend. This byte-identity is the check behind every chaos and
// conformance gate.
func (s *Store) Digest() (string, error) {
	h := sha256.New()
	if err := s.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ExportJSON writes one round's records as a JSON array, one object
// per responsive IP — the interchange format for external analysis
// tooling (the role the paper's Python library played). Only the
// requested round is loaded from the backend.
func (s *Store) ExportJSON(w io.Writer, round int) error {
	r := s.Round(round)
	if r == nil {
		return fmt.Errorf("store: no round %d", round)
	}
	enc := json.NewEncoder(w)
	type jsonRecord struct {
		IP          string `json:"ip"`
		Round       int    `json:"round"`
		Day         int    `json:"day"`
		OpenPorts   uint8  `json:"open_ports"`
		Status      int    `json:"status,omitempty"`
		Scheme      string `json:"scheme,omitempty"`
		ContentType string `json:"content_type,omitempty"`
		Title       string `json:"title,omitempty"`
		Server      string `json:"server,omitempty"`
		Template    string `json:"template,omitempty"`
		Keywords    string `json:"keywords,omitempty"`
		AnalyticsID string `json:"analytics_id,omitempty"`
		PoweredBy   string `json:"powered_by,omitempty"`
		Simhash     string `json:"simhash,omitempty"`
		BodyLen     int    `json:"body_len,omitempty"`
		Cluster     int64  `json:"cluster,omitempty"`
		VPC         bool   `json:"vpc,omitempty"`
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	first := true
	var encodeErr error
	r.Each(func(rec *Record) bool {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				encodeErr = err
				return false
			}
		}
		first = false
		jr := jsonRecord{
			IP: rec.IP.String(), Round: rec.Round, Day: rec.Day,
			OpenPorts: rec.OpenPorts, Status: rec.HTTPStatus, Scheme: rec.Scheme,
			ContentType: rec.ContentType, Title: rec.Title, Server: rec.Server,
			Template: rec.Template, Keywords: rec.Keywords, AnalyticsID: rec.AnalyticsID,
			PoweredBy: rec.PoweredBy, BodyLen: rec.BodyLen, Cluster: rec.Cluster, VPC: rec.VPC,
		}
		if rec.Available() {
			jr.Simhash = rec.Simhash.String()
		}
		if err := enc.Encode(&jr); err != nil {
			encodeErr = err
			return false
		}
		return true
	})
	if encodeErr != nil {
		return encodeErr
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

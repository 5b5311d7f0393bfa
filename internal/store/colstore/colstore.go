// Package colstore is the on-disk columnar store backend: each
// finalized round becomes one append-only segment file
// (round-00000.seg, round-00001.seg, ...) written crash-safely through
// internal/atomicfile, so a campaign's resident memory is bounded by
// the open round plus whichever rounds a reader is holding instead of
// the whole history. Segments are validated — framing, CRC, every offset,
// length and count the footer declares — once at Open; a torn final
// write (a leftover *.tmp sibling) is ignored and a truncated or
// mangled segment reports store.ErrCorrupt before any read path runs.
//
// The backend honors the store.Backend byte-identity contract: records
// round-trip through the column encodings field-for-field, so
// Save/Digest/ExportJSON/History over a colstore-backed Store are
// byte-identical to the in-memory backend's output.
package colstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"whowas/internal/atomicfile"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
)

// Options configures Open.
type Options struct {
	// CloudName names the store when the directory is empty. When
	// segments already exist their recorded cloud name wins; a non-empty
	// CloudName that disagrees with it is an error.
	CloudName string
}

// Backend implements store.Backend over a directory of per-round
// columnar segments.
type Backend struct {
	dir       string
	cloudName string

	// mu guards segs and closed. Reads hold it shared for as long as
	// they use a segment's file, so Rewrite cannot swap the file under
	// the footer they parsed it with.
	mu     sync.RWMutex
	segs   []segment
	closed bool

	stats readStats
}

// ReadStats counts what a backend's reads have done since Open: how
// many segments they decoded and what they inflated and read to do it.
// Open's own validation pass is not counted.
type ReadStats struct {
	Scans     int64 // segment decodes (Read, Records)
	FullScans int64 // of Scans, those that decoded every field
	Groups    int64 // row-group blocks inflated, by scans and point reads
	Chunks    int64 // dictionary chunks inflated, by scans and point reads
	Bytes     int64 // segment bytes read, by scans and point reads
}

// readStats is ReadStats' live, concurrently updated form.
type readStats struct {
	scans, fullScans, groups, chunks, bytes atomic.Int64
}

// readAt is the package readAt, counted.
func (st *readStats) readAt(r io.ReaderAt, off int64, buf []byte) error {
	st.bytes.Add(int64(len(buf)))
	return readAt(r, off, buf)
}

// ReadStats returns the backend's cumulative read counts.
func (b *Backend) ReadStats() ReadStats {
	st := &b.stats
	return ReadStats{
		Scans: st.scans.Load(), FullScans: st.fullScans.Load(),
		Groups: st.groups.Load(), Chunks: st.chunks.Load(), Bytes: st.bytes.Load(),
	}
}

// segment is a round's footer, a read-only handle on the file it
// describes (held until Close) and the file's size; they change together.
type segment struct {
	foot *segFooter
	f    *os.File
	size int
}

var _ store.Backend = (*Backend)(nil)

// segName is the canonical segment filename for a round index.
func segName(i int) string { return fmt.Sprintf("round-%05d.seg", i) }

// Open opens (creating if needed) a segment directory. Every existing
// segment is fully validated — magic, CRC over the whole file, the
// footer's directories against the file's size, sequential round
// indexes — so later reads operate on proven data; any damage surfaces
// here as an error wrapping store.ErrCorrupt, and a directory in the
// superseded v1 layout as an error that says how to rebuild it.
// Leftover .tmp files from an interrupted atomic write are ignored:
// the rename never happened, so the directory's committed state is
// intact without them. A failed Open closes every file it opened.
func Open(dir string, opts Options) (_ *Backend, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if filepath.Ext(name) == ".seg" {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	b := &Backend{dir: dir, cloudName: opts.CloudName}
	defer func() {
		if err != nil { // every handle opened so far is in b.segs
			err = errors.Join(err, b.Close())
		}
	}()
	for i, name := range names {
		if name != segName(i) {
			return nil, fmt.Errorf("%w: expected segment %s, found %s", store.ErrCorrupt, segName(i), name)
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("colstore: %w", err)
		}
		b.segs = append(b.segs, segment{f: f})
		fi, err := f.Stat()
		if err != nil {
			return nil, fmt.Errorf("colstore: %w", err)
		}
		data := make([]byte, fi.Size())
		if err := readAt(f, 0, data); err != nil {
			return nil, err
		}
		foot, err := parseFooter(data)
		if err != nil {
			return nil, fmt.Errorf("colstore: segment %s: %w", name, err)
		}
		if foot.Meta.Index != i {
			return nil, fmt.Errorf("%w: segment %s carries round index %d", store.ErrCorrupt, name, foot.Meta.Index)
		}
		if i == 0 && opts.CloudName == "" {
			b.cloudName = foot.CloudName
		} else if foot.CloudName != b.cloudName {
			return nil, fmt.Errorf("%w: segment %s is for cloud %q, store is %q", store.ErrCorrupt, name, foot.CloudName, b.cloudName)
		}
		b.segs[i] = segment{foot: foot, f: f, size: len(data)}
	}
	return b, nil
}

// CloudName returns the store's cloud name (from existing segments, or
// Options for a fresh directory).
func (b *Backend) CloudName() string { return b.cloudName }

// NumRounds returns how many segments the directory holds.
func (b *Backend) NumRounds() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.segs)
}

// Meta returns a round's metadata from its segment footer — the file
// is not touched.
func (b *Backend) Meta(i int) (store.RoundMeta, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if i < 0 || i >= len(b.segs) {
		return store.RoundMeta{}, fmt.Errorf("colstore: no round %d", i)
	}
	return b.segs[i].foot.Meta, nil
}

// Append encodes the round into a new segment and commits it with an
// atomic write.
func (b *Backend) Append(meta store.RoundMeta, recs []*store.Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("colstore: backend closed")
	}
	if meta.Index != len(b.segs) {
		return fmt.Errorf("colstore: append round %d, have %d rounds", meta.Index, len(b.segs))
	}
	seg, err := b.writeSegment(meta, recs)
	if err != nil {
		return err
	}
	b.segs = append(b.segs, seg)
	return nil
}

// Rewrite re-encodes an existing round in place (UpdateRounds
// write-backs: cartography's VPC labels, clustering's assignments).
func (b *Backend) Rewrite(i int, meta store.RoundMeta, recs []*store.Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("colstore: backend closed")
	}
	if i < 0 || i >= len(b.segs) {
		return fmt.Errorf("colstore: no round %d", i)
	}
	if meta.Index != i {
		return fmt.Errorf("colstore: rewrite round %d with meta for round %d", i, meta.Index)
	}
	seg, err := b.writeSegment(meta, recs)
	if err != nil {
		return err // the old footer and handle keep serving together
	}
	_ = b.segs[i].f.Close() // read-only, and the rewrite is already committed
	b.segs[i] = seg
	return nil
}

// writeSegment encodes and atomically writes one segment, returning
// its parsed footer and a read-only handle on it. Caller holds mu.
func (b *Backend) writeSegment(meta store.RoundMeta, recs []*store.Record) (segment, error) {
	data, err := encodeSegment(meta, b.cloudName, recs)
	if err != nil {
		return segment{}, err
	}
	// Re-parsing what was just encoded both yields the footer to retain
	// and proves the segment passes the exact validation Open applies.
	foot, err := parseFooter(data)
	if err != nil {
		return segment{}, fmt.Errorf("colstore: freshly encoded segment invalid: %w", err)
	}
	path := filepath.Join(b.dir, segName(meta.Index))
	if err := atomicfile.WriteFile(path, data); err != nil {
		return segment{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return segment{}, fmt.Errorf("colstore: %w", err)
	}
	return segment{foot: foot, f: f, size: len(data)}, nil
}

// Records decodes every field of a round's segment into fresh records:
// Read(i, store.AllFields, nil).
func (b *Backend) Records(i int) ([]*store.Record, error) {
	return b.Read(i, store.AllFields, nil)
}

// Read decodes the columns of fields from a round's segment and leaves
// every other field zero (store.Backend's fields contract). The
// segment's bytes are read into buf and its records decoded into buf's
// slab, so a nil buf returns fresh records the caller owns and a
// non-nil one overwrites the records its previous Read returned
// (store.Backend's buffer contract).
func (b *Backend) Read(i int, fields store.Fields, buf *store.RoundBuf) ([]*store.Record, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, fmt.Errorf("colstore: backend closed")
	}
	if i < 0 || i >= len(b.segs) {
		return nil, fmt.Errorf("colstore: no round %d", i)
	}
	b.stats.scans.Add(1)
	if fields&store.AllFields == store.AllFields {
		b.stats.fullScans.Add(1)
	}
	data := buf.Bytes(b.segs[i].size)
	if err := b.stats.readAt(b.segs[i].f, 0, data); err != nil {
		return nil, err
	}
	recs, err := decodeSegment(data, b.segs[i].foot, fields, &b.stats, buf)
	if err != nil {
		return nil, fmt.Errorf("colstore: segment %s: %w", segName(i), err)
	}
	return recs, nil
}

// History walks the per-IP record trail without materializing rounds:
// the footer's IP bounds rule most segments out, and the candidates are
// point-read (readRow: one row group each) in parallel under the shared
// lock held here, then answered in round order.
func (b *Backend) History(ip ipaddr.Addr) ([]*store.Record, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, fmt.Errorf("colstore: backend closed")
	}
	var cand []int
	for i, seg := range b.segs {
		if foot := seg.foot; foot.Meta.Records > 0 && uint32(ip) >= foot.MinIP && uint32(ip) <= foot.MaxIP {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return nil, nil
	}
	found := make([]*store.Record, len(cand))
	err := parallel(len(cand), func(k int) (err error) {
		seg := b.segs[cand[k]]
		if found[k], err = readRow(seg.f, seg.foot, uint32(ip), &b.stats); err != nil {
			return fmt.Errorf("colstore: segment %s: %w", segName(cand[k]), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out := slices.DeleteFunc(found, func(rec *store.Record) bool { return rec == nil }); len(out) > 0 {
		return out, nil
	}
	return nil, nil
}

// Close closes every segment file and marks the backend closed; a
// second Close does nothing.
func (b *Backend) Close() (err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for _, seg := range b.segs {
		err = errors.Join(err, seg.f.Close())
	}
	return err
}

// parallel runs fn(0..n-1) on the caller plus up to GOMAXPROCS-1
// goroutines and returns the lowest failed index's error. Indices go out
// in ascending order and none above the lowest failure seen is taken, so
// every index below the reported one ran: the schedule cannot change it.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var (
		next, failAt atomic.Int64 // failAt is the lowest failed index, n if none
		wg           sync.WaitGroup
	)
	failAt.Store(int64(n))
	work := func() {
		for i := next.Add(1) - 1; i < failAt.Load(); i = next.Add(1) - 1 {
			if errs[i] = fn(int(i)); errs[i] != nil {
				for low := failAt.Load(); i < low && !failAt.CompareAndSwap(low, i); low = failAt.Load() {
				}
			}
		}
	}
	for w := 1; w < min(n, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if i := failAt.Load(); i < int64(n) {
		return errs[i]
	}
	return nil
}

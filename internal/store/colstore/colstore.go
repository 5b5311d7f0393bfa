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
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

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
	segs   []*segFooter
	closed bool
}

var _ store.Backend = (*Backend)(nil)

// segName is the canonical segment filename for a round index.
func segName(i int) string { return fmt.Sprintf("round-%05d.seg", i) }

func (b *Backend) segPath(i int) string { return filepath.Join(b.dir, segName(i)) }

// Open opens (creating if needed) a segment directory. Every existing
// segment is fully validated — magic, CRC over the whole file, the
// footer's directories against the file's size, sequential round
// indexes — so later reads operate on proven data; any damage surfaces
// here as an error wrapping store.ErrCorrupt, and a directory in the
// superseded v1 layout as an error that says how to rebuild it.
// Leftover .tmp files from an interrupted atomic write are ignored:
// the rename never happened, so the directory's committed state is
// intact without them.
func Open(dir string, opts Options) (*Backend, error) {
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
	for i, name := range names {
		if name != segName(i) {
			return nil, fmt.Errorf("%w: expected segment %s, found %s", store.ErrCorrupt, segName(i), name)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("colstore: %w", err)
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
		b.segs = append(b.segs, foot)
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
	return b.segs[i].Meta, nil
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
	foot, err := b.writeSegment(meta, recs)
	if err != nil {
		return err
	}
	b.segs = append(b.segs, foot)
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
	foot, err := b.writeSegment(meta, recs)
	if err != nil {
		return err
	}
	b.segs[i] = foot
	return nil
}

// writeSegment encodes and atomically writes one segment, returning
// its parsed footer. Caller holds mu.
func (b *Backend) writeSegment(meta store.RoundMeta, recs []*store.Record) (*segFooter, error) {
	data, err := encodeSegment(meta, b.cloudName, recs)
	if err != nil {
		return nil, err
	}
	// Re-parsing what was just encoded both yields the footer to retain
	// and proves the segment passes the exact validation Open applies.
	foot, err := parseFooter(data)
	if err != nil {
		return nil, fmt.Errorf("colstore: freshly encoded segment invalid: %w", err)
	}
	if err := atomicfile.WriteFile(b.segPath(meta.Index), data); err != nil {
		return nil, err
	}
	return foot, nil
}

// Records decodes a round's segment; every call returns fresh records
// the caller owns.
func (b *Backend) Records(i int) ([]*store.Record, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, fmt.Errorf("colstore: backend closed")
	}
	if i < 0 || i >= len(b.segs) {
		return nil, fmt.Errorf("colstore: no round %d", i)
	}
	data, err := os.ReadFile(b.segPath(i))
	if err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	recs, err := decodeSegment(data, b.segs[i])
	if err != nil {
		return nil, fmt.Errorf("colstore: segment %s: %w", segName(i), err)
	}
	return recs, nil
}

// History walks the per-IP record trail without materializing rounds:
// the footer's IP bounds rule most segments out, and in a candidate
// segment the point read (readRow) touches one row group — nothing is
// decoded wholesale.
func (b *Backend) History(ip ipaddr.Addr) ([]*store.Record, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, fmt.Errorf("colstore: backend closed")
	}
	var out []*store.Record
	for i, foot := range b.segs {
		if foot.Meta.Records == 0 || uint32(ip) < foot.MinIP || uint32(ip) > foot.MaxIP {
			continue
		}
		rec, err := b.recordAt(i, foot, ip)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			out = append(out, rec)
		}
	}
	return out, nil
}

// recordAt returns round i's record for ip, or nil. Caller holds mu.
func (b *Backend) recordAt(i int, foot *segFooter, ip ipaddr.Addr) (*store.Record, error) {
	f, err := os.Open(b.segPath(i))
	if err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	defer f.Close()
	rec, err := readRow(f, foot, uint32(ip))
	if err != nil {
		return nil, fmt.Errorf("colstore: segment %s: %w", segName(i), err)
	}
	return rec, nil
}

// Close marks the backend closed. Segment files are opened per read,
// so there is nothing else to release; Close is idempotent.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	return nil
}

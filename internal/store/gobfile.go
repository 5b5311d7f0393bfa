package store

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"whowas/internal/ipaddr"
)

// FileBackend is a lazy, read-only Backend over a snapshot written by
// Save: opening it scans the frame structure and decodes only the
// header and per-round metadata, recording each records frame's file
// offset; a round's records are decoded on demand and not retained.
// whowas-query opens stores through it so single-round commands
// (export, summary's streaming folds) never materialize the whole
// campaign — the Stats counters let tests pin that down.
type FileBackend struct {
	f         *os.File
	cloudName string
	metas     []RoundMeta
	offsets   []int64 // records frame payload offset per round
	lengths   []int   // records frame payload length per round

	mu     sync.Mutex // serializes reads of the shared file handle
	closed bool

	roundsDecoded atomic.Int64
}

// FileStats counts a FileBackend's lazy-decode activity.
type FileStats struct {
	// RoundsDecoded is how many record frames were decoded since open.
	// A single-round export decodes exactly one, however many rounds
	// the file holds; nothing decoded is retained, so peak residency is
	// the caller's current round.
	RoundsDecoded int64
}

// OpenFileBackend opens a saved store file for lazy read-only access.
// Truncated or mangled files return an error wrapping ErrCorrupt.
func OpenFileBackend(path string) (*FileBackend, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	b, err := scanFile(f)
	if err != nil {
		// The scan owns the handle from here; don't leak it on a
		// corrupt file.
		_ = f.Close()
		return nil, err
	}
	return b, nil
}

// OpenFile opens a saved store file as a Store over a FileBackend —
// the reader whowas-query opens -store files with.
func OpenFile(path string) (*Store, error) {
	b, err := OpenFileBackend(path)
	if err != nil {
		return nil, err
	}
	return NewWithBackend(b.CloudName(), b), nil
}

// scanFile walks the frame structure, validating lengths and decoding
// header and metas but skipping every records frame.
func scanFile(f *os.File) (*FileBackend, error) {
	if err := readMagic(f); err != nil {
		return nil, err
	}
	h, err := readHeader(f)
	if err != nil {
		return nil, err
	}
	b := &FileBackend{f: f, cloudName: h.CloudName}
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}
	for i := 0; i < h.Rounds; i++ {
		var meta RoundMeta
		if err := gobUnframe(f, &meta); err != nil {
			return nil, err
		}
		if meta.Index != i {
			return nil, fmt.Errorf("%w: round %d carries index %d", ErrCorrupt, i, meta.Index)
		}
		pos, err = f.Seek(0, io.SeekCurrent)
		if err != nil {
			return nil, err
		}
		n, err := readFrameLen(f)
		if err != nil {
			return nil, fmt.Errorf("%w: round %d records frame: %v", ErrCorrupt, i, err)
		}
		end, err := f.Seek(int64(n), io.SeekCurrent)
		if err != nil {
			return nil, err
		}
		if end != pos+4+int64(n) {
			return nil, fmt.Errorf("%w: round %d records frame overruns the file", ErrCorrupt, i)
		}
		b.metas = append(b.metas, meta)
		b.offsets = append(b.offsets, pos+4)
		b.lengths = append(b.lengths, n)
	}
	// The seek past the last frame succeeds even beyond EOF; prove the
	// payload is really there, and that nothing trails it.
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if n := len(b.offsets); n > 0 {
		if want := b.offsets[n-1] + int64(b.lengths[n-1]); size != want {
			return nil, fmt.Errorf("%w: file is %d bytes, frames claim %d", ErrCorrupt, size, want)
		}
	}
	return b, nil
}

// Stats returns the decode counters.
func (b *FileBackend) Stats() FileStats {
	return FileStats{RoundsDecoded: b.roundsDecoded.Load()}
}

// CloudName returns the saved store's cloud name.
func (b *FileBackend) CloudName() string { return b.cloudName }

// Append is rejected: the backend is read-only.
func (b *FileBackend) Append(meta RoundMeta, recs []*Record) error {
	return fmt.Errorf("store: file backend is read-only")
}

// Rewrite is rejected: the backend is read-only.
func (b *FileBackend) Rewrite(i int, meta RoundMeta, recs []*Record) error {
	return fmt.Errorf("store: file backend is read-only")
}

func (b *FileBackend) NumRounds() int { return len(b.metas) }

func (b *FileBackend) Meta(i int) (RoundMeta, error) {
	if i < 0 || i >= len(b.metas) {
		return RoundMeta{}, fmt.Errorf("store: no round %d", i)
	}
	return b.metas[i], nil
}

// Read decodes round i's frame; gob decodes every field, whatever f
// asks for.
func (b *FileBackend) Read(i int, _ Fields) ([]*Record, error) {
	if i < 0 || i >= len(b.metas) {
		return nil, fmt.Errorf("store: no round %d", i)
	}
	buf := make([]byte, b.lengths[i])
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, fmt.Errorf("store: file backend closed")
	}
	_, err := b.f.ReadAt(buf, b.offsets[i])
	b.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("store: reading round %d: %w", i, err)
	}
	recs, err := decodeRecordsFrame(buf, b.metas[i])
	if err != nil {
		return nil, err
	}
	b.roundsDecoded.Add(1)
	return recs, nil
}

func (b *FileBackend) History(ip ipaddr.Addr) ([]*Record, error) {
	var out []*Record
	for i := range b.metas {
		recs, err := b.Read(i, AllFields)
		if err != nil {
			return nil, err
		}
		if rec := searchIP(recs, ip); rec != nil {
			out = append(out, rec)
		}
	}
	return out, nil
}

// searchIP binary searches an IP-sorted record slice.
func searchIP(recs []*Record, ip ipaddr.Addr) *Record {
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := (lo + hi) / 2
		if recs[mid].IP < ip {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(recs) && recs[lo].IP == ip {
		return recs[lo]
	}
	return nil
}

func (b *FileBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	return b.f.Close()
}

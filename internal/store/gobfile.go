package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
)

// OpenFile loads a snapshot written by Save into a Store over the
// memory backend. Every frame is decoded and checked before it
// returns: the magic, version and round count, the metas in sequence,
// each records frame decoding to its meta's count in strictly
// ascending IP order, and nothing after the last frame. A truncated or
// mangled file therefore fails here with an error wrapping ErrCorrupt,
// and no read of the loaded store can fail. The file is not kept open;
// writes to the store never reach it.
func OpenFile(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, []byte(saveMagic)) {
		return nil, fmt.Errorf("%w: not a WhoWas store (bad magic)", ErrCorrupt)
	}
	f := frames(data[len(saveMagic):])
	var h saveHeader
	if err := f.decode(&h, "header"); err != nil {
		return nil, err
	}
	if h.Version != saveVersion {
		return nil, fmt.Errorf("%w: unsupported store version %d", ErrCorrupt, h.Version)
	}
	if h.Rounds < 0 {
		return nil, fmt.Errorf("%w: negative round count %d", ErrCorrupt, h.Rounds)
	}
	b := &memBackend{}
	for i := 0; i < h.Rounds; i++ {
		var meta RoundMeta
		if err := f.decode(&meta, fmt.Sprintf("round %d meta", i)); err != nil {
			return nil, err
		}
		if meta.Index != i {
			return nil, fmt.Errorf("%w: round %d carries index %d", ErrCorrupt, i, meta.Index)
		}
		var flat []Record
		if err := f.decode(&flat, fmt.Sprintf("round %d records", i)); err != nil {
			return nil, err
		}
		if len(flat) != meta.Records {
			return nil, fmt.Errorf("%w: round %d holds %d records, meta says %d", ErrCorrupt, i, len(flat), meta.Records)
		}
		recs := make([]*Record, len(flat))
		for j := range flat {
			if j > 0 && flat[j].IP <= flat[j-1].IP {
				return nil, fmt.Errorf("%w: round %d records not in ascending IP order at %s", ErrCorrupt, i, flat[j].IP)
			}
			recs[j] = &flat[j]
		}
		b.rounds = append(b.rounds, memRound{meta: meta, recs: recs})
	}
	if len(f) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last frame", ErrCorrupt, len(f))
	}
	return NewWithBackend(h.CloudName, b), nil
}

// OpenFileBackend loads a Save file as OpenFile does and returns the
// loaded memory backend.
func OpenFileBackend(path string) (Backend, error) {
	s, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	return s.backend, nil
}

// frames is the unread rest of a Save file: each frame a 4-byte
// big-endian length, then that many bytes holding one gob stream.
type frames []byte

// decode consumes the next frame into v; what names it in errors. The
// length is checked against the bytes left before anything is decoded.
func (f *frames) decode(v any, what string) error {
	if len(*f) < 4 {
		return fmt.Errorf("%w: %s: truncated frame length", ErrCorrupt, what)
	}
	n, rest := binary.BigEndian.Uint32(*f), (*f)[4:]
	if uint64(n) > uint64(len(rest)) {
		return fmt.Errorf("%w: %s: frame of %d bytes, %d left in the file", ErrCorrupt, what, n, len(rest))
	}
	*f = rest[n:]
	if err := gob.NewDecoder(bytes.NewReader(rest[:n])).Decode(v); err != nil {
		return fmt.Errorf("%w: decoding %s: %v", ErrCorrupt, what, err)
	}
	return nil
}

package store

import (
	"fmt"

	"whowas/internal/ipaddr"
)

// memBackend is the default Backend: finalized rounds held as live
// IP-sorted slices, which History binary searches. It retains every
// record for the life of the store — the layout the analysis engines
// grew up on — so memory stays proportional to the whole campaign;
// campaigns that cannot afford that use the columnar backend instead.
type memBackend struct {
	rounds []memRound
}

type memRound struct {
	meta RoundMeta
	recs []*Record
}

// NewMemoryBackend returns the in-memory Backend New installs by
// default. Exported so conformance tests and benchmarks can construct
// both backends symmetrically.
func NewMemoryBackend() Backend { return &memBackend{} }

func (b *memBackend) Append(meta RoundMeta, recs []*Record) error {
	if meta.Index != len(b.rounds) {
		return fmt.Errorf("store: append round %d, have %d rounds", meta.Index, len(b.rounds))
	}
	b.rounds = append(b.rounds, memRound{meta: meta, recs: recs})
	return nil
}

func (b *memBackend) NumRounds() int { return len(b.rounds) }

func (b *memBackend) Meta(i int) (RoundMeta, error) {
	if i < 0 || i >= len(b.rounds) {
		return RoundMeta{}, fmt.Errorf("store: no round %d", i)
	}
	return b.rounds[i].meta, nil
}

// Read returns the stored records whole, whatever f asks for, and
// never touches buf.
func (b *memBackend) Read(i int, _ Fields, _ *RoundBuf) ([]*Record, error) {
	if i < 0 || i >= len(b.rounds) {
		return nil, fmt.Errorf("store: no round %d", i)
	}
	return b.rounds[i].recs, nil
}

func (b *memBackend) History(ip ipaddr.Addr) ([]*Record, error) {
	var out []*Record
	for i := range b.rounds {
		if rec := searchIP(b.rounds[i].recs, ip); rec != nil {
			out = append(out, rec)
		}
	}
	return out, nil
}

func (b *memBackend) Rewrite(i int, meta RoundMeta, recs []*Record) error {
	if i < 0 || i >= len(b.rounds) {
		return fmt.Errorf("store: no round %d", i)
	}
	b.rounds[i] = memRound{meta: meta, recs: recs}
	return nil
}

func (b *memBackend) Close() error { return nil }

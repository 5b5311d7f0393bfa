// The storage boundary: the Store frontend owns the open-round
// lifecycle (batched writes, finalize, metrics, digests) and delegates
// persistence of finalized rounds to a Backend. Two implementations
// exist: the in-memory maps this package grew up with (memory.go, the
// default) and the on-disk columnar engine (internal/store/colstore)
// that makes 1:1-scale campaigns fit in bounded memory.
package store

import (
	"errors"

	"whowas/internal/ipaddr"
)

// ErrCorrupt tags storage-integrity failures: a truncated or mangled
// gob snapshot, a torn columnar segment, a CRC mismatch. Callers test
// with errors.Is(err, store.ErrCorrupt); no integrity failure ever
// panics.
var ErrCorrupt = errors.New("store: corrupt data")

// RoundMeta is a finalized round's identity and counters — everything
// about a round except its records.
type RoundMeta struct {
	Index    int   // round index, 0-based, dense
	Day      int   // campaign day offset
	Probed   int64 // IPs probed this round
	Degraded bool  // round finalized on its deadline with partial records
	Records  int   // record count (responsive IPs)
}

// Backend persists finalized rounds. The Store frontend is the only
// writer and serializes Append/Rewrite calls; read methods must be safe
// for concurrent use (the frontend calls them under a read lock from
// many goroutines).
//
// Integrity contract: a Backend validates its data when it is opened
// (returning an error wrapping ErrCorrupt on truncated or mangled
// input) and thereafter guarantees reads succeed. The frontend treats a
// post-open read failure as a programming error, not an I/O condition.
//
// Byte-identity contract: Records(i) must return records equal
// (gob-byte-for-byte, field by field) to the slice Append received —
// this is what makes Save/Digest/ExportJSON/History identical whichever
// backend collected the campaign.
type Backend interface {
	// Append persists a finalized round. meta.Index is always the
	// current NumRounds (rounds are dense and appended in order), and
	// recs is sorted ascending by IP.
	Append(meta RoundMeta, recs []*Record) error
	// NumRounds returns the number of persisted rounds.
	NumRounds() int
	// Meta returns round i's metadata.
	Meta(i int) (RoundMeta, error)
	// Records returns round i's records, sorted ascending by IP. Lazy
	// backends decode on demand; callers must not retain the slice
	// across rounds when streaming (Store.EachRound does not).
	Records(i int) ([]*Record, error)
	// History returns every record for an IP across rounds, in round
	// order; nil when the IP was never responsive.
	History(ip ipaddr.Addr) ([]*Record, error)
	// Rewrite replaces round i in place. The analysis joins
	// (cartography VPC labels, final cluster IDs) write back through it
	// via Store.UpdateRounds; recs is the full record slice, still
	// sorted by IP.
	Rewrite(i int, meta RoundMeta, recs []*Record) error
	// Close releases backend resources. The store is unusable after.
	Close() error
}

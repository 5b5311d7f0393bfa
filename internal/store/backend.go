// The storage boundary: the Store frontend owns the open-round
// lifecycle (batched writes, finalize, metrics, digests) and delegates
// persistence of finalized rounds to a Backend. Two implementations
// exist: the in-memory slices this package grew up with (memory.go, the
// default, which OpenFile also loads a Save snapshot into) and the
// on-disk columnar engine (internal/store/colstore) that makes
// 1:1-scale campaigns fit in bounded memory.
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

// Fields is a set of Record columns a read fills (Backend.Read,
// Store.Scan), one bit per stored column in colstore's block order.
// IP, Round and Day are always filled and have no bit.
type Fields uint32

const (
	FieldPorts       Fields = 1 << iota // OpenPorts
	FieldFlags                          // Fetched, RobotsDenied, VPC
	FieldScheme                         // Scheme
	FieldStatus                         // HTTPStatus
	FieldFetchErr                       // FetchErr
	FieldContentType                    // ContentType
	FieldBodyLen                        // BodyLen
	FieldBody                           // Body
	FieldPoweredBy                      // PoweredBy
	FieldDescription                    // Description
	FieldHeaderNames                    // HeaderNames
	FieldTitle                          // Title
	FieldTemplate                       // Template
	FieldServer                         // Server
	FieldKeywords                       // Keywords
	FieldAnalyticsID                    // AnalyticsID
	FieldSimhash                        // Simhash
	FieldLinks                          // Links
	FieldTrackers                       // Trackers
	FieldSubpages                       // Subpages
	FieldCluster                        // Cluster

	// AllFields is every column: a whole record.
	AllFields = FieldCluster<<1 - 1
)

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
// Byte-identity contract: Read(i, AllFields) must return records equal
// (gob-byte-for-byte, field by field) to the slice Append received —
// this is what makes Save/Digest/ExportJSON/History identical whichever
// backend collected the campaign.
//
// Fields contract: Read(i, f, buf) fills at least the fields in f, plus
// IP, Round and Day. colstore decodes only those columns and leaves
// every other field zero; the memory backend holds whole records and
// returns them whole. A narrowed round is therefore not a copy of the
// stored one: it must not escape the call that asked for it, and it is
// never written back (UpdateRounds reads every field).
//
// Buffer contract: a nil buf asks for records the caller owns. A
// non-nil buf lets colstore decode into the space (RoundBuf) its last
// Read used: the records of that last Read are overwritten, so they
// are valid only until buf is passed again. Strings and string lists
// are always fresh allocations, so a string kept from a record
// outlives the buffer. The memory backend ignores buf.
type Backend interface {
	// Append persists a finalized round. meta.Index is always the
	// current NumRounds (rounds are dense and appended in order), and
	// recs is sorted ascending by IP.
	Append(meta RoundMeta, recs []*Record) error
	// NumRounds returns the number of persisted rounds.
	NumRounds() int
	// Meta returns round i's metadata.
	Meta(i int) (RoundMeta, error)
	// Read returns round i's records, sorted ascending by IP, with at
	// least the fields in f filled, decoded into buf when it is not
	// nil (see the buffer contract above).
	Read(i int, f Fields, buf *RoundBuf) ([]*Record, error)
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

// RoundBuf is decode space one Backend.Read after another reuses: a
// round's record slab, the pointers handed out into it, the bytes the
// round was read from and the scratch they were expanded into. Each
// grows to the largest round it has held and is never shrunk. Methods
// on a nil *RoundBuf allocate afresh on every call. A RoundBuf is not
// safe for concurrent use.
type RoundBuf struct {
	flat          []Record
	ptrs          []*Record
	data, scratch []byte
}

// Records returns n zeroed records, pointers into b's slab in order.
// The records the previous call returned are cleared and handed out
// again.
func (b *RoundBuf) Records(n int) []*Record {
	if b == nil {
		return pointInto(make([]Record, n), make([]*Record, n))
	}
	if cap(b.flat) < n {
		b.flat, b.ptrs = make([]Record, n), make([]*Record, n)
	} else {
		b.flat, b.ptrs = b.flat[:n], b.ptrs[:n]
		clear(b.flat)
	}
	return pointInto(b.flat, b.ptrs)
}

// pointInto points ptrs[k] at flat[k] and returns ptrs.
func pointInto(flat []Record, ptrs []*Record) []*Record {
	for k := range flat {
		ptrs[k] = &flat[k]
	}
	return ptrs
}

// Bytes returns n bytes of unspecified contents for a round's stored
// form, reusing the ones the previous call returned.
func (b *RoundBuf) Bytes(n int) []byte {
	if b == nil {
		return make([]byte, n)
	}
	return regrow(&b.data, n)
}

// Scratch returns n bytes of unspecified contents, apart from Bytes',
// for a read's working state (colstore inflates into it), reusing the
// ones the previous call returned.
func (b *RoundBuf) Scratch(n int) []byte {
	if b == nil {
		return make([]byte, n)
	}
	return regrow(&b.scratch, n)
}

// regrow resizes *p to n bytes, reallocating only when its capacity
// falls short.
func regrow(p *[]byte, n int) []byte {
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return *p
}

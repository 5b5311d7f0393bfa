package colstore

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"whowas/internal/store"
)

// recordFields names the Record fields each store.Fields bit fills.
var recordFields = map[store.Fields][]string{
	store.FieldPorts:       {"OpenPorts"},
	store.FieldFlags:       {"Fetched", "RobotsDenied", "VPC"},
	store.FieldScheme:      {"Scheme"},
	store.FieldStatus:      {"HTTPStatus"},
	store.FieldFetchErr:    {"FetchErr"},
	store.FieldContentType: {"ContentType"},
	store.FieldBodyLen:     {"BodyLen"},
	store.FieldBody:        {"Body"},
	store.FieldPoweredBy:   {"PoweredBy"},
	store.FieldDescription: {"Description"},
	store.FieldHeaderNames: {"HeaderNames"},
	store.FieldTitle:       {"Title"},
	store.FieldTemplate:    {"Template"},
	store.FieldServer:      {"Server"},
	store.FieldKeywords:    {"Keywords"},
	store.FieldAnalyticsID: {"AnalyticsID"},
	store.FieldSimhash:     {"Simhash"},
	store.FieldLinks:       {"Links"},
	store.FieldTrackers:    {"Trackers"},
	store.FieldSubpages:    {"Subpages"},
	store.FieldCluster:     {"Cluster"},
}

// masked is what a read of fields must return for rec: IP, Round, Day
// and the named fields copied, every other field zero.
func masked(rec *store.Record, fields store.Fields) store.Record {
	out := store.Record{IP: rec.IP, Round: rec.Round, Day: rec.Day}
	src, dst := reflect.ValueOf(rec).Elem(), reflect.ValueOf(&out).Elem()
	for bit, names := range recordFields {
		if fields&bit != 0 {
			for _, name := range names {
				dst.FieldByName(name).Set(src.FieldByName(name))
			}
		}
	}
	return out
}

// TestFieldsCoverRecord: every stored Record field has exactly one
// Fields bit, and every column decodes under exactly one bit — so a new
// field cannot be added without a way to ask for it.
func TestFieldsCoverRecord(t *testing.T) {
	named := map[string]int{"IP": 1, "Round": 1, "Day": 1}
	for _, names := range recordFields {
		for _, n := range names {
			named[n]++
		}
	}
	rt := reflect.TypeOf(store.Record{})
	for i := 0; i < rt.NumField(); i++ {
		if n := rt.Field(i).Name; named[n] != 1 {
			t.Errorf("Record.%s is named by %d Fields bits", n, named[n])
		}
	}
	var union store.Fields
	for c, col := range columns {
		if bits.OnesCount32(uint32(col.field)) != 1 || union&col.field != 0 || recordFields[col.field] == nil {
			t.Errorf("column %d (%s) has field set %b", c, col.name, col.field)
		}
		union |= col.field
	}
	if union != store.AllFields || len(recordFields) != numCols {
		t.Errorf("columns cover %b, AllFields is %b", union, store.AllFields)
	}
}

// chunksTouched counts the dictionary chunks the ids of recs' fields
// in fields fall in: what a read of those fields must inflate.
func chunksTouched(recs []*store.Record, fields store.Fields) int64 {
	_, dict := buildDict(recs)
	touched := map[uint64]bool{}
	for _, rec := range recs {
		v := reflect.ValueOf(rec).Elem()
		for bit, names := range recordFields {
			if fields&dictFields&bit == 0 {
				continue
			}
			switch f := v.FieldByName(names[0]).Interface().(type) {
			case string:
				touched[dict[f]/chunkWords] = true
			case []string:
				for _, s := range f {
					touched[dict[s]/chunkWords] = true
				}
			}
		}
	}
	return int64(len(touched))
}

// byColumnWords returns a copy of recs with every non-empty string
// field under a prefix of its own field's name: the sorted dictionary
// then keeps each column's words together, so a read of a few string
// columns has ids in only some of the chunks.
func byColumnWords(recs []*store.Record) []*store.Record {
	out := cloneRecs(recs)
	for _, rec := range out {
		v := reflect.ValueOf(rec).Elem()
		for bit, names := range recordFields {
			if dictFields&bit == 0 {
				continue
			}
			switch f := v.FieldByName(names[0]); f.Kind() {
			case reflect.String:
				if f.String() != "" {
					f.SetString(names[0] + "/" + f.String())
				}
			case reflect.Slice:
				for i := 0; i < f.Len(); i++ {
					if e := f.Index(i); e.String() != "" {
						e.SetString(names[0] + "/" + e.String())
					}
				}
			}
		}
	}
	return out
}

// TestNarrowedDecode decodes random rounds under every single field and
// random field sets, inline and on the parallel decode workers: each
// record equals the whole decode on the requested fields and is zero on
// the rest, a read of no dictionary column inflates no chunk, and a
// read inflates exactly the chunks its requested ids fall in — on a
// round whose columns share their words and on one whose columns keep
// theirs apart.
func TestNarrowedDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mixed := randRound(rng, 3*groupRows+5, 2, 6)
	type round struct {
		recs []*store.Record
		data []byte
		foot *segFooter
	}
	var rounds []round
	for _, recs := range [][]*store.Record{mixed, byColumnWords(mixed)} {
		data, err := encodeSegment(store.RoundMeta{Index: 2, Day: 6, Records: len(recs)}, "ec2", recs)
		if err != nil {
			t.Fatal(err)
		}
		foot, err := parseFooter(data)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, round{recs, data, foot})
	}
	sets := []store.Fields{0, store.AllFields, dictFields, store.AllFields &^ dictFields}
	for bit := range recordFields {
		sets = append(sets, bit, store.AllFields&^bit)
	}
	for i := 0; i < 16; i++ {
		sets = append(sets, store.Fields(rng.Uint32())&store.AllFields)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for r, rd := range rounds {
				for _, fields := range sets {
					var st readStats
					got, err := decodeSegment(rd.data, rd.foot, fields, &st, nil)
					if err != nil {
						t.Fatalf("round %d, fields %b: %v", r, fields, err)
					}
					for k, rec := range rd.recs {
						if want := masked(rec, fields); !reflect.DeepEqual(*got[k], want) {
							t.Fatalf("round %d, fields %b, record %d:\n got %+v\nwant %+v", r, fields, k, *got[k], want)
						}
					}
					if noDict := fields&dictFields == 0; noDict != (st.chunks.Load() == 0) || st.groups.Load() != int64(len(rd.foot.Groups)) {
						t.Fatalf("round %d, fields %b inflated %d chunks and %d groups", r, fields, st.chunks.Load(), st.groups.Load())
					}
					if want := chunksTouched(rd.recs, fields); st.chunks.Load() != want {
						t.Fatalf("round %d, fields %b inflated %d of %d dictionary chunks, its ids fall in %d",
							r, fields, st.chunks.Load(), len(rd.foot.Chunks), want)
					}
				}
			}
		})
	}
}

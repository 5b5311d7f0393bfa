package features

import (
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"whowas/internal/fetcher"
	"whowas/internal/ipaddr"
	"whowas/internal/store"
	"whowas/internal/websim"
)

// bigPage is a ~64 KiB page whose title, GA id and link are unique to
// i, so a record that kept substrings of it would keep all of it.
func bigPage(i int) *fetcher.Page {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<html><head><title>Page %d</title>
<meta name="description" content="about page %d">
<script>_gaq.push(['_setAccount','UA-%d-1']);</script></head><body>
<a href="http://site%d.example/path">link</a>`, i, i, 1000+i, i)
	sb.WriteString(strings.Repeat("<p>filler text</p>\n", 64<<10/19))
	sb.WriteString("</body></html>")
	return &fetcher.Page{
		IP:        ipaddr.Addr(i),
		OpenPorts: store.PortHTTP,
		Scheme:    "http",
		Status:    200,
		Header:    http.Header{"Server": {"nginx"}},
		Body:      []byte(sb.String()),
	}
}

// TestRecordsRetainNoBody keeps the records of 200 distinct ~64 KiB
// bodies, built both through a campaign's cache and through FromPage,
// and requires the live heap to grow by well under the bodies' size:
// no record, and no cache entry, holds a body or a substring of one.
func TestRecordsRetainNoBody(t *testing.T) {
	const n = 200
	x := NewExtractor()
	recs := make([]*store.Record, 0, 2*n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	total := 0
	for i := 0; i < n; i++ {
		p := bigPage(i)
		total += 2 * len(p.Body)
		recs = append(recs, x.FromPage(p), FromPage(bigPage(i)))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth >= int64(total/10) {
		t.Errorf("live heap grew %d B keeping %d records of %d body bytes, want < %d",
			growth, len(recs), total, total/10)
	}
	for i, rec := range recs {
		if rec.Body != "" {
			t.Fatalf("record %d carries a body", i)
		}
		if want := fmt.Sprintf("Page %d", i/2); rec.Title != want {
			t.Fatalf("record %d title %q, want %q", i, rec.Title, want)
		}
	}
	runtime.KeepAlive(x)
}

// oraclePages renders websim pages over several seeds, both cloud
// profiles and every category, malicious ones included, with two
// revisions each.
func oraclePages() []*fetcher.Page {
	cats := []websim.Category{
		websim.CategoryPaaS, websim.CategoryVPN, websim.CategoryShopping,
		websim.CategoryBlog, websim.CategoryCorporate, websim.CategoryDev,
	}
	var pages []*fetcher.Page
	for seed := int64(1); seed <= 3; seed++ {
		for _, cloud := range []websim.CloudKind{websim.EC2Like, websim.AzureLike} {
			rng := rand.New(rand.NewSource(seed*10 + int64(cloud)))
			for i := 0; i < 40; i++ {
				prof := websim.GenProfile(rng, uint64(i), cloud, cats[i%len(cats)])
				if i%7 == 0 {
					websim.MarkMalicious(rng, &prof, []websim.MaliciousKind{websim.Phishing, websim.Malware}[i%2], 2)
				}
				for rev := 0; rev < 2; rev++ {
					h := http.Header{}
					for _, f := range prof.AppendHeaders(nil, rev) {
						h.Add(f.Key, f.Value)
					}
					pages = append(pages, &fetcher.Page{
						IP:          ipaddr.Addr(len(pages)),
						OpenPorts:   store.PortHTTP,
						Scheme:      "http",
						Status:      prof.StatusCode,
						Header:      h,
						ContentType: h.Get("Content-Type"),
						Body:        []byte(prof.RenderPage(rev)),
					})
				}
			}
		}
	}
	return pages
}

// TestExtractorMatchesFromPage runs websim pages through one shared
// cache from several goroutines, each page at least twice, and holds
// every record to FromPage's record for the same page, field by field.
func TestExtractorMatchesFromPage(t *testing.T) {
	pages := oraclePages()
	want := make([]*store.Record, len(pages))
	for i, p := range pages {
		want[i] = FromPage(p)
	}
	x := NewExtractor()
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker sees every page, starting at its own offset, so
			// misses, hits and racing misses of one body all occur.
			for k := range pages {
				i := (k + w*len(pages)/workers) % len(pages)
				if got := x.FromPage(pages[i]); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("page %d: cached record\n%+v\nwant\n%+v", i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestExtractorBound fills a small cache past its bound: the entry
// count never exceeds it, and a body repeated after the cache filled is
// served from the cache again.
func TestExtractorBound(t *testing.T) {
	x := NewExtractor()
	x.bound = 4
	body := func(i int) []byte { return []byte(fmt.Sprintf("<title>t%d</title>", i)) }
	for i := 0; i < 3*x.bound+1; i++ {
		x.extract(body(i))
		if len(x.entries) > x.bound {
			t.Fatalf("after %d bodies the cache holds %d entries, bound %d", i+1, len(x.entries), x.bound)
		}
	}
	first := x.extract(body(100))
	if again := x.extract(body(100)); again != first {
		t.Error("a body repeated past the bound was extracted again, not served from the cache")
	}
	if first.title != "t100" {
		t.Errorf("title = %q", first.title)
	}
}

package blacklist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"whowas/internal/cloudsim"
	"whowas/internal/ipaddr"
)

// feedFingerprint hashes everything both feeds hold: every VirusTotal
// report in IP order, with its detections in stored order and its
// passive-DNS domains, then every Safe Browsing record in URL order.
// The encoding is length-prefixed, so any change to how the feeds are
// computed that changes a record changes the hash.
func feedFingerprint(f *Feeds) string {
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	str := func(s string) {
		u64(uint64(len(s)))
		buf = append(buf, s...)
	}
	ips := make([]ipaddr.Addr, 0, len(f.VirusTotal.reports))
	for ip := range f.VirusTotal.reports {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, ip := range ips {
		rep := f.VirusTotal.reports[ip]
		u64(uint64(ip))
		u64(uint64(len(rep.Detections)))
		for _, d := range rep.Detections {
			str(d.Engine)
			u64(uint64(int64(d.FirstDay)))
			u64(uint64(int64(d.LastDay)))
			str(d.URL)
		}
		u64(uint64(len(rep.Domains)))
		for _, d := range rep.Domains {
			str(d)
		}
		h.Write(buf)
		buf = buf[:0]
	}
	urls := make([]string, 0, len(f.SafeBrowsing.byURL))
	for u := range f.SafeBrowsing.byURL {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		rec := f.SafeBrowsing.byURL[u]
		str(u)
		u64(uint64(rec.kind))
		u64(uint64(int64(rec.flaggedFrom)))
		u64(uint64(int64(rec.flaggedTo)))
		h.Write(buf)
		buf = buf[:0]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFeedFingerprint pins the feeds' content, not only their
// properties: the other tests check detection lags and consensus, and
// would pass over a change to how the feeds are computed that moves a
// detection. The constants were computed before BuildFeeds read each
// service's holdings in one pass and must not be edited to follow a
// change.
func TestFeedFingerprint(t *testing.T) {
	cases := []struct {
		name string
		cfg  cloudsim.Config
		want string
	}{
		{"ec2-512-seed3", cloudsim.DefaultEC2Config(512, 3), "de7c46b9ee0e627ab00ef4d78380b63014e02372c9e0b3e2083571dc5afbc8eb"},
		{"ec2-128-seed3", cloudsim.DefaultEC2Config(128, 3), "9267a192ad4d06a15b9271990d3aaea37b70e295fc2b2a615ad3ffa18ca8f60c"},
		{"azure-128-seed3", cloudsim.DefaultAzureConfig(128, 3), "23bf662cbd8b69577fcdad0b0d38f98741f2877f91f61a17042f5b90a9d68d30"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cloud, err := cloudsim.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := feedFingerprint(BuildFeeds(cloud)); got != tc.want {
				t.Errorf("feed fingerprint = %s, want %s", got, tc.want)
			}
		})
	}
}

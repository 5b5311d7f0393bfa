package cloudsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"whowas/internal/ipaddr"
)

// truthFingerprint hashes every answer the cloud's ground truth gives:
// the full IPState of every probed address (and one address either
// side of the space) on every day, one day either side of the campaign
// included; BoundCount on those days; and AssignedIPs of every service,
// background included, on every seventh day and the last. The encoding
// is fixed-width binary, so any change to how the truth is stored that
// changes an answer changes the hash.
func truthFingerprint(c *Cloud) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	flag := func(b bool) {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	state := func(day int, ip ipaddr.Addr) {
		st := c.StateAt(day, ip)
		flag(st.Bound)
		u64(st.ServiceID)
		u64(uint64(st.Ports))
		flag(st.Web)
		flag(st.Slow)
		flag(st.HTTPFail)
		flag(st.Down)
		flag(st.VPC)
		u64(uint64(len(st.Region)))
		buf = append(buf, st.Region...)
		if len(buf) > cap(buf)-256 {
			flush()
		}
	}
	pfx := c.Ranges().Prefixes()
	below := pfx[0].First() - 1
	above := pfx[len(pfx)-1].Last() + 1
	for day := -1; day <= c.Days(); day++ {
		u64(uint64(int64(day)))
		u64(uint64(c.BoundCount(day)))
		state(day, below)
		c.Ranges().Each(func(a ipaddr.Addr) bool {
			state(day, a)
			return true
		})
		state(day, above)
	}
	ids := []uint64{0}
	for _, s := range c.Services() {
		ids = append(ids, s.ID)
	}
	for day := 0; day < c.Days(); day++ {
		if day%7 != 0 && day != c.Days()-1 {
			continue
		}
		for _, id := range ids {
			ips := c.AssignedIPs(day, id)
			u64(uint64(day))
			u64(id)
			u64(uint64(len(ips)))
			for _, a := range ips {
				u64(uint64(a))
				if len(buf) > cap(buf)-256 {
					flush()
				}
			}
		}
	}
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

// TestTruthFingerprint pins the ground truth itself, not only its
// determinism: TestDeterminism compares two clouds built by the same
// code and so cannot see a change in how the truth is stored that
// changes an answer. The constants were computed from the per-day
// snapshot representation and must not be edited to follow a change.
func TestTruthFingerprint(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"ec2-1024-seed3", DefaultEC2Config(1024, 3), "a3fbac7072b243233779f7193736475abdca8c1642c966db7a136b17248fd806"},
		{"azure-128-seed3", DefaultAzureConfig(128, 3), "37fbb87d62d31b2b5df53d4ef5810e2a4dab043c8a4712c2dea9b949c71c134c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := truthFingerprint(c); got != tc.want {
				t.Errorf("truth fingerprint = %s, want %s", got, tc.want)
			}
		})
	}
}

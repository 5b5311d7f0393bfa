package cloudapi

import (
	"context"
	"testing"
	"time"
)

// BenchmarkWireDial prices one dial over the probe channel: serially
// (a round trip and its goroutine wake-ups — what a lone dialer pays)
// and from many dialers at once (what a scanner's worker pool pays per
// dial once frames and verdicts share writes). The attach case adds the
// tunnel an open port costs when it is used.
func BenchmarkWireDial(b *testing.B) {
	truth, client, _ := startWire(b, ServerConfig{DataListeners: 2})
	web, unbound, _ := findConformanceIPs3(b, truth, 0)
	session := WithProbeSession(context.Background(), "shard-4242-17") // as RunShard stamps its dials
	for _, tc := range []struct {
		name, addr string
		attach     bool
	}{
		{"closed", unbound.String() + ":80", false},
		{"open", web.String() + ":80", false},
		{"attach", web.String() + ":80", true},
	} {
		dial := func() {
			ctx, cancel := context.WithTimeout(session, 2*time.Second)
			if c, err := client.DialContext(ctx, "tcp", tc.addr); err == nil {
				if tc.attach {
					_ = c.SetDeadline(time.Time{}) // any I/O call opens the tunnel
				}
				_ = c.Close()
			}
			cancel()
		}
		b.Run(tc.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dial()
			}
		})
		b.Run(tc.name+"/parallel64", func(b *testing.B) {
			b.ReportAllocs()
			b.SetParallelism(32) // x GOMAXPROCS(2) = 64 dialers
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					dial()
				}
			})
		})
	}
}

package cloudapi

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"

	"whowas/internal/metrics"
)

// FuzzProbeFrames feeds arbitrary bytes to both frame decoders — the
// daemon's DIAL/DROP decoder and the client's VERDICT decoder. Neither
// may panic; every field they hand back is within its bound (nothing
// is ever sized by a length off the wire: the fields land in fixed
// scratch space, and a reason is allocated only after its length
// passed the bound); and each decoder accepts exactly the encoders'
// output — the frames it decoded, re-encoded, are the bytes it read —
// so an unknown type, an unknown status, a budget below -1 or an
// oversize field ends the stream, which closes the channel.
func FuzzProbeFrames(f *testing.F) {
	dial := appendDial(nil, 7, 1999, "54.1.2.3:80", "shard-4242-17")
	f.Add(dial)
	f.Add(appendDrop(appendDial(dial, 8, noBudget, "54.1.2.4:443", ""), 7))
	f.Add(appendVerdict(appendVerdict(appendVerdict(nil, 7, verdictOK, ""), 8, verdictTimeout, ""), 9, verdictRefused, ""))
	f.Add(appendVerdict(nil, 10, verdictErr, "netsim: bad port \"x\""))
	f.Add(appendDial(nil, 1, 0, strings.Repeat("a", maxAddress), strings.Repeat("s", maxSession)))
	f.Add(appendDial(nil, 1, 0, strings.Repeat("a", maxAddress+1), ""))  // address over its bound
	f.Add(appendDial(nil, 1, 0, "a", strings.Repeat("s", maxSession+1))) // session over its bound
	f.Add(appendDial(nil, 1, -2, "54.1.2.3:80", ""))                     // budget below -1
	f.Add([]byte{frameVerdict, 0, 0, 0, 1, verdictErr, 0xff, 0xff, 'x'}) // reason over its bound
	f.Add([]byte{frameVerdict, 0, 0, 0, 1, 9})                           // unknown status
	f.Add([]byte{0x7f, 1, 2, 3})                                         // unknown frame type
	f.Add(dial[:len(dial)-3])                                            // cut mid-frame
	f.Fuzz(func(t *testing.T, data []byte) {
		var re []byte
		dec := &frameDecoder{br: bufio.NewReader(bytes.NewReader(data))}
		var fr clientFrame
		for dec.next(&fr) == nil {
			switch fr.typ {
			case frameDrop:
				re = appendDrop(re, fr.id)
			case frameDial:
				if len(fr.address) > maxAddress || len(fr.session) > maxSession || fr.budgetMS < noBudget {
					t.Fatalf("DIAL out of bounds: address %d B, session %d B, budget %d", len(fr.address), len(fr.session), fr.budgetMS)
				}
				re = appendDial(re, fr.id, fr.budgetMS, string(fr.address), string(fr.session))
			default:
				t.Fatalf("decoded frame type %#x", fr.typ)
			}
		}
		if !bytes.HasPrefix(data, re) {
			t.Fatalf("daemon decoder read frames that re-encode to %x from %x", re, data)
		}

		re = re[:0]
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			id, status, reason, err := readVerdict(br)
			if err != nil {
				break
			}
			if status < verdictOK || status > verdictErr || len(reason) > maxReason || (reason != "" && status != verdictErr) {
				t.Fatalf("VERDICT out of bounds: status %d, reason %d B", status, len(reason))
			}
			re = appendVerdict(re, id, status, reason)
		}
		if !bytes.HasPrefix(data, re) {
			t.Fatalf("client decoder read verdicts that re-encode to %x from %x", re, data)
		}
	})
}

// FuzzChannelPreamble feeds arbitrary opening lines to a daemon's
// data-connection handler. The two openings the client formats are
// accepted, in exactly the client's spelling (parseOpening and the
// formatters round-trip); every other line, the retired WHOWAS1
// preamble included, is answered ERR, ticks cloudd.preamble_errors
// and closes the connection.
func FuzzChannelPreamble(f *testing.F) {
	f.Add(openProbe)
	f.Add(strings.TrimSuffix(formatAttach(3, 41), "\n"))
	f.Add(strings.TrimSuffix(formatAttach(1<<64-1, 1<<32-1), "\n"))
	f.Add("ATTACH 3 4294967296") // id over 32 bits
	f.Add("ATTACH 03 41")
	f.Add("ATTACH +3 41")
	f.Add("ATTACH 3 41 ")
	f.Add("ATTACH 3")
	f.Add("PROBE ")
	f.Add("probe")
	f.Add("")
	f.Add("WHOWAS1 54.1.2.3:80 2000 shard-1-1")
	f.Add("NOT-A-PREAMBLE")
	f.Add(strings.Repeat("P", 2*maxLine))

	backing, err := NewInProcess(conformanceConfig())
	if err != nil {
		f.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := NewServer(backing, ServerConfig{Metrics: reg})
	rejected := reg.Counter("cloudd.preamble_errors")

	f.Fuzz(func(t *testing.T, line string) {
		attach, channel, id, err := parseOpening(line)
		if err == nil {
			want := openProbe
			if attach {
				want = strings.TrimSuffix(formatAttach(channel, id), "\n")
			}
			if line != want {
				t.Fatalf("parseOpening accepted %q, which the client would spell %q", line, want)
			}
		}

		// The daemon parses the first line of what it is sent, cut at
		// maxLine; what follows a newline is FuzzProbeFrames' business.
		first, _, _ := strings.Cut(line, "\n")
		if len(first) > maxLine {
			first = first[:maxLine]
		}
		_, _, _, err = parseOpening(first)
		before := rejected.Load()
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
			srv.serveData(server)
		}()
		go func() { _, _ = io.WriteString(client, first+"\n") }()
		answer, rerr := readLine(bufio.NewReader(client))
		_ = client.Close()
		<-done
		if rerr != nil {
			t.Fatalf("opening %q: no answer: %v", first, rerr)
		}
		switch {
		case err != nil:
			if !strings.HasPrefix(answer, statusErr+" ") || rejected.Load() != before+1 {
				t.Fatalf("bad opening %q answered %q with %d preamble errors counted, want ERR and 1",
					first, answer, rejected.Load()-before)
			}
		case first == openProbe:
			if !strings.HasPrefix(answer, statusOK+" ") || rejected.Load() != before {
				t.Fatalf("PROBE answered %q (%d preamble errors)", answer, rejected.Load()-before)
			}
		default: // a well-formed ATTACH for a connection nobody parked
			if !strings.HasPrefix(answer, statusErr+" ") || rejected.Load() != before {
				t.Fatalf("ATTACH for nothing parked answered %q (%d preamble errors)", answer, rejected.Load()-before)
			}
		}
	})
}

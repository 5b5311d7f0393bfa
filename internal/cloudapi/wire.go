package cloudapi

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"whowas/internal/netsim"
)

// The data-plane wire protocol. A verdict — the one-word answer to a
// connection probe — costs a frame, not a TCP connection; a TCP
// connection is opened only when an open port is actually used. Both
// kinds of connection arrive on the daemon's one listener fleet and
// say which they are in a one-line opening:
//
//	client: "PROBE\n"                     daemon: "OK <channel>\n"
//	client: "ATTACH <channel> <id>\n"     daemon: "OK\n"
//
// anything else is answered "ERR <reason>\n" and closed (and counted
// in cloudd.preamble_errors). A line, either way, is at most maxLine
// bytes; <channel> is a decimal uint64 the daemon assigns, <id> a
// decimal uint32.
//
// Probe channel. After "PROBE\n" the connection carries binary frames
// for its whole life, one channel per Client per data listener.
// Integers are big-endian; the client may pipeline frames behind the
// opening line without waiting for its answer.
//
//	client -> daemon
//	  DIAL    0x01 id:u32 budget_ms:i64 alen:u8 address slen:u16 session
//	  DROP    0x02 id:u32
//	daemon -> client
//	  VERDICT 0x03 id:u32 status:u8 [rlen:u16 reason]   (reason iff ERR)
//
// address is at most maxAddress bytes, session at most maxSession,
// reason at most maxReason; an unknown frame type, an unknown status,
// a budget below -1 or a length over its bound closes the channel
// (FuzzProbeFrames holds both decoders to that). id is chosen by the
// client and names the dial until its verdict — and, after an OK,
// the parked connection until it is attached or dropped.
//
// budget_ms is the dialer's remaining context budget (-1 when the
// context has no deadline). The daemon rebuilds an equivalent
// deadline before dialing the simulated network, which is what keeps
// deadline-sensitive semantics — the slow-host threshold, injected
// connect latency — identical across transports. session is the
// caller's probe session (netsim.WithProbeSession, "" when unset):
// the daemon re-stamps it server-side so the simulated network's
// per-(ip, day) transient-loss bookkeeping stays scoped per session
// across the wire, exactly as in-process.
//
// Lifecycle. The daemon decodes frames in arrival order and makes
// exactly one simulated dial per DIAL frame — the one decision the
// client's dial gets (TestWireDialEquivalence counts them). TIMEOUT,
// REFUSED and ERR end the dial. On OK the daemon parks the simulated
// connection under (channel, id), at most maxParked per channel, and
// the client hands its caller a net.Conn that has touched no socket.
// First I/O on that conn attaches: a new TCP connection to the same
// listener opens with "ATTACH <channel> <id>", the daemon unparks the
// simulated connection and splices the two byte streams until either
// side closes. Close before any I/O — a scanner probe's whole use of
// an open port — is one DROP frame, which closes the parked
// connection. A verdict that arrives for a dial the caller has
// abandoned (its deadline passed) is DROPped by the client's reader.
// When the channel's TCP connection ends, the client fails every dial
// still waiting on it with ErrTransport (the next dial opens a fresh
// channel) and the daemon closes everything the channel still has
// parked.
const (
	openProbe  = "PROBE"
	openAttach = "ATTACH"
	maxLine    = 256

	frameDial    = 0x01
	frameDrop    = 0x02
	frameVerdict = 0x03

	maxAddress = 64
	maxSession = 256
	maxReason  = 1024

	// maxParked bounds the simulated connections one channel may have
	// answered OK for and not yet seen attached or dropped. A client
	// parks at most one per dial in flight (pools of tens); past the
	// bound the daemon answers ERR rather than hold more.
	maxParked = 1024
)

// Verdict statuses in the VERDICT frame, and the two words a status
// line answering an opening starts with.
const (
	verdictOK = iota + 1
	verdictTimeout
	verdictRefused
	verdictErr
)

const (
	statusOK  = "OK"
	statusErr = "ERR"
)

// noBudget marks a dial without a context deadline.
const noBudget = int64(-1)

// handshakeTimeout bounds, on both sides, the steps that wait on the
// peer without a caller's context: a TCP connect, an opening line and
// its answer, one write of buffered verdicts.
const handshakeTimeout = 10 * time.Second

// ErrTransport marks a dial (or an attach) that got no verdict because
// the wire itself failed: the probe channel could not be opened or was
// lost, or the daemon answered ERR. It is deliberately not a net.Error
// — the scanner reads timeouts and refusals, which are net.Errors, as
// verdicts about the address, and everything else as "no verdict",
// which aborts the scan instead of recording a dead daemon as an empty
// cloud.
var ErrTransport = errors.New("cloudapi: data plane transport failure")

// errFrame is the decoders' one complaint; the channel closes on it.
var errFrame = errors.New("cloudapi: malformed probe frame")

// WithProbeSession scopes downstream dials to a probe session (see
// netsim.WithProbeSession). Re-exported so campaign code can stamp
// sessions without importing the simulator directly; the Client
// carries the session across the wire in every DIAL frame.
func WithProbeSession(ctx context.Context, id string) context.Context {
	return netsim.WithProbeSession(ctx, id)
}

// formatAttach renders the opening line of a lazy tunnel.
func formatAttach(channel uint64, id uint32) string {
	return openAttach + " " + strconv.FormatUint(channel, 10) + " " + strconv.FormatUint(uint64(id), 10) + "\n"
}

// parseOpening reads a data connection's opening line, without its
// newline: "PROBE", or "ATTACH <channel> <id>" in exactly the form
// formatAttach writes (no signs, no leading zeros, one space).
func parseOpening(line string) (attach bool, channel uint64, id uint32, err error) {
	if line == openProbe {
		return false, 0, 0, nil
	}
	rest, _ := strings.CutPrefix(line, openAttach+" ")
	chs, ids, _ := strings.Cut(rest, " ")
	channel, cerr := strconv.ParseUint(chs, 10, 64)
	id64, ierr := strconv.ParseUint(ids, 10, 32)
	if cerr != nil || ierr != nil || formatAttach(channel, uint32(id64)) != line+"\n" {
		return false, 0, 0, fmt.Errorf("cloudapi: bad opening line %.40q", line)
	}
	return true, channel, uint32(id64), nil
}

// readLine reads one line (an opening or its answer) and returns it
// without the line ending. A line longer than maxLine is cut there: no
// valid line is that long, so whoever parses it rejects it like any
// other garbage.
func readLine(br *bufio.Reader) (string, error) {
	var line [maxLine]byte
	for n := range line {
		b, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		if b == '\n' {
			return string(line[:n]), nil
		}
		line[n] = b
	}
	return string(line[:]), nil
}

// appendDial appends a DIAL frame. The caller has checked address and
// session against their bounds.
func appendDial(buf []byte, id uint32, budgetMS int64, address, session string) []byte {
	buf = append(buf, frameDial)
	buf = binary.BigEndian.AppendUint32(buf, id)
	buf = binary.BigEndian.AppendUint64(buf, uint64(budgetMS))
	buf = append(buf, byte(len(address)))
	buf = append(buf, address...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(session)))
	return append(buf, session...)
}

// appendDrop appends a DROP frame.
func appendDrop(buf []byte, id uint32) []byte {
	return binary.BigEndian.AppendUint32(append(buf, frameDrop), id)
}

// appendVerdict appends a VERDICT frame; reason travels only with
// verdictErr and is cut to maxReason.
func appendVerdict(buf []byte, id uint32, status byte, reason string) []byte {
	buf = binary.BigEndian.AppendUint32(append(buf, frameVerdict), id)
	buf = append(buf, status)
	if status != verdictErr {
		return buf
	}
	if len(reason) > maxReason {
		reason = reason[:maxReason]
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(reason)))
	return append(buf, reason...)
}

// clientFrame is one decoded DIAL or DROP. address and session alias
// the decoder's scratch space and are valid until its next call.
type clientFrame struct {
	typ      byte
	id       uint32
	budgetMS int64
	address  []byte
	session  []byte
}

// frameDecoder reads the daemon's side of a probe channel. Its scratch
// array is the only place variable-length fields land, so no length
// read off the wire ever sizes an allocation.
type frameDecoder struct {
	br      *bufio.Reader
	scratch [maxAddress + maxSession]byte
}

// next decodes one frame into f. io.EOF means the channel ended on a
// frame boundary; every other error ends it too.
func (d *frameDecoder) next(f *clientFrame) error {
	typ, err := d.br.ReadByte()
	if err != nil {
		return err
	}
	switch typ {
	case frameDrop:
		hdr, err := peek(d.br, 4)
		if err != nil {
			return err
		}
		*f = clientFrame{typ: frameDrop, id: binary.BigEndian.Uint32(hdr)}
		return nil
	case frameDial:
		hdr, err := peek(d.br, 4+8+1)
		if err != nil {
			return err
		}
		id := binary.BigEndian.Uint32(hdr)
		budget := int64(binary.BigEndian.Uint64(hdr[4:]))
		alen := int(hdr[12])
		if budget < noBudget || alen > maxAddress {
			return errFrame
		}
		if _, err := io.ReadFull(d.br, d.scratch[:alen]); err != nil {
			return noEOF(err)
		}
		hdr, err = peek(d.br, 2)
		if err != nil {
			return err
		}
		slen := int(binary.BigEndian.Uint16(hdr))
		if slen > maxSession {
			return errFrame
		}
		if _, err := io.ReadFull(d.br, d.scratch[alen:alen+slen]); err != nil {
			return noEOF(err)
		}
		*f = clientFrame{
			typ:      frameDial,
			id:       id,
			budgetMS: budget,
			address:  d.scratch[:alen],
			session:  d.scratch[alen : alen+slen],
		}
		return nil
	}
	return errFrame
}

// readVerdict decodes one VERDICT frame on the client's side.
func readVerdict(br *bufio.Reader) (id uint32, status byte, reason string, err error) {
	typ, err := br.ReadByte()
	if err != nil {
		return 0, 0, "", err
	}
	if typ != frameVerdict {
		return 0, 0, "", errFrame
	}
	hdr, err := peek(br, 4+1)
	if err != nil {
		return 0, 0, "", err
	}
	id, status = binary.BigEndian.Uint32(hdr), hdr[4]
	if status < verdictOK || status > verdictErr {
		return 0, 0, "", errFrame
	}
	if status != verdictErr {
		return id, status, "", nil
	}
	if hdr, err = peek(br, 2); err != nil {
		return 0, 0, "", err
	}
	rlen := int(binary.BigEndian.Uint16(hdr))
	if rlen > maxReason {
		return 0, 0, "", errFrame
	}
	buf := make([]byte, rlen)
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, 0, "", noEOF(err)
	}
	return id, status, string(buf), nil
}

// peek consumes a frame's next n fixed bytes and returns them; the
// slice is the reader's own buffer, valid until its next read. n is a
// small constant, far below any reader's buffer size.
func peek(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err != nil {
		return nil, noEOF(err)
	}
	_, _ = br.Discard(n) // cannot fail: Peek has the n bytes buffered
	return b, nil
}

// noEOF turns an end of stream inside a frame into the error it is.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Package fetcher implements WhoWas's webpage fetcher (§4): a worker
// pool that, for each IP the scanner reports with an open web port,
// fetches robots.txt, honors a top-level disallow, and then issues at
// most one GET for the root URL. The URL scheme is "http://" when port
// 80 answered and "https://" when only 443 did.
//
// Per the paper's ethics stance (§7), the User-Agent identifies the
// measurement as research and carries a contact address; at most two
// GETs are made per IP per round; and only textual content is stored,
// truncated to 512 KB.
package fetcher

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"whowas/internal/ipaddr"
	"whowas/internal/metrics"
	"whowas/internal/netsim"
	"whowas/internal/ratelimit"
	"whowas/internal/scanner"
	"whowas/internal/store"
	"whowas/internal/trace"
)

// DefaultUserAgent is the research-identifying UA string (§7).
const DefaultUserAgent = "WhoWas-Research-Scanner/1.0 (measurement study; contact: whowas@example.edu; opt-out honored)"

// MaxBodyBytes caps stored content at 512 KB (§4).
const MaxBodyBytes = 512 * 1024

// Config tunes the fetcher. Zero fields take the paper's defaults
// (250 workers, 10 s HTTP timeout). Every GET carries DefaultUserAgent
// and stores at most MaxBodyBytes of body.
type Config struct {
	Workers int
	Timeout time.Duration
	// Attempts is the maximum tries per GET. Transient transport
	// errors — timeouts, mid-stream resets, truncated responses — are
	// retried with a fresh per-attempt deadline of Timeout; refusals
	// (a definitive answer from the instance) and cancellations are
	// not. Default 1, the paper's single-shot exchange.
	Attempts int
	// RetryBackoff is the delay before the first retry, doubling on
	// each further attempt. Default 100ms when Attempts > 1.
	RetryBackoff time.Duration
	// Metrics, when non-nil, receives the fetcher's instrumentation:
	// the fetcher.* counters and the get/fetch latency histograms.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records sampled per-IP "get" spans
	// (attributes: ip, region, prefix, scheme, status, robots_denied,
	// error) as children of the span carried by the fetch context; the
	// fault layer annotates them with the faults it injects into their
	// dials. The per-IP sampling decision is the tracer's, shared with
	// the scanner, so one IP's probe and GET spans appear together.
	Tracer *trace.Tracer
	// RegionOf labels sampled GET spans with the target's cloud
	// region; nil omits the attribute.
	RegionOf func(ipaddr.Addr) string
}

// DefaultWorkers is the resolved worker-pool size when Config.Workers
// is zero: scaled with the hardware (64 workers per scheduler core —
// fetches spend their time blocked on the network) and floored at the
// paper's 250.
func DefaultWorkers() int {
	w := 64 * runtime.GOMAXPROCS(0)
	if w < 250 {
		w = 250
	}
	return w
}

// WithDefaults returns the config with zero fields resolved to the
// paper's defaults (DefaultWorkers workers, 10 s timeout, one attempt).
// New applies it internally; it is exported so callers and tests can
// observe the resolved values instead of re-stating them.
func (c Config) WithDefaults() Config {
	out := c
	if out.Workers <= 0 {
		out.Workers = DefaultWorkers()
	}
	if out.Timeout <= 0 {
		out.Timeout = 10 * time.Second
	}
	if out.Attempts <= 0 {
		out.Attempts = 1
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = 100 * time.Millisecond
	}
	return out
}

// Page is the outcome of fetching one IP in one round.
type Page struct {
	IP           ipaddr.Addr
	OpenPorts    uint8 // copied from the scan result
	Scheme       string
	Status       int // 0 when no HTTP response was obtained
	Header       http.Header
	ContentType  string
	Body         []byte // truncated, textual content only
	BodySkipped  bool   // non-text content: headers kept, body not downloaded
	RobotsDenied bool   // robots.txt disallows "/": no page GET was made
	Err          error  // transport-level failure, nil on any HTTP response
}

// Available mirrors the paper's availability definition: the HTTP(S)
// request for the root URL succeeded.
func (p *Page) Available() bool { return p.Status != 0 }

// Fetcher fetches pages through a Dialer.
type Fetcher struct {
	cfg       Config
	client    *http.Client
	transport *http.Transport

	// Instrumentation handles; all nil (no-op) without a registry.
	mGets         *metrics.Counter   // HTTP GETs issued (robots + pages)
	mRobotsDenied *metrics.Counter   // IPs whose robots.txt disallowed "/"
	mErrors       *metrics.Counter   // transport-level failures
	mRetries      *metrics.Counter   // GETs retried after transient errors
	mBodyBytes    *metrics.Counter   // body bytes downloaded (post-truncation)
	mPages        *metrics.Counter   // per-IP exchanges completed
	mGetLat       *metrics.Histogram // per-GET latency
	mFetchLat     *metrics.Histogram // per-IP exchange latency
}

// CloseIdle drops pooled keep-alive connections. A connection's scope
// is one IP's exchange: robots.txt and the page share it, and the
// exchange's final GET closes it at both ends as soon as the page is
// read. What is left for CloseIdle are the exchanges that end early —
// robots.txt disallows "/" or a GET fails. The platform calls it
// between rounds: rounds are days apart, and no real server keeps a
// connection open that long — without this, a pooled connection could
// observe a dead IP as still serving.
func (f *Fetcher) CloseIdle() { f.transport.CloseIdleConnections() }

// New builds a fetcher over the given dialer.
func New(dialer netsim.Dialer, cfg Config) (*Fetcher, error) {
	if dialer == nil {
		return nil, fmt.Errorf("fetcher: nil dialer")
	}
	c := cfg.WithDefaults()
	transport := &http.Transport{
		DialContext:         dialer.DialContext,
		TLSClientConfig:     &tls.Config{InsecureSkipVerify: true}, // cloud IPs serve self-signed certs
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	f := &Fetcher{
		cfg:       c,
		transport: transport,
		client: &http.Client{
			Transport: transport,
			Timeout:   c.Timeout,
			// The paper's fetcher does not follow links or redirects
			// off the measured IP.
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
	if r := c.Metrics; r != nil {
		f.mGets = r.Counter("fetcher.gets")
		f.mRobotsDenied = r.Counter("fetcher.robots_denied")
		f.mErrors = r.Counter("fetcher.transport_errors")
		f.mRetries = r.Counter("fetcher.retries")
		f.mBodyBytes = r.Counter("fetcher.body_bytes")
		f.mPages = r.Counter("fetcher.pages")
		f.mGetLat = r.Histogram("fetcher.get_latency")
		f.mFetchLat = r.Histogram("fetcher.fetch_latency")
	}
	return f, nil
}

// textualType reports whether a content type's body is stored. The
// paper forgoes application/*, audio/*, image/* and video/* content,
// with the structured-text exceptions that appear in its Table 5.
func textualType(ctype string) bool {
	ct, _, _ := strings.Cut(ctype, ";")
	ct = strings.ToLower(strings.TrimSpace(ct))
	if strings.HasPrefix(ct, "text/") {
		return true
	}
	switch ct {
	case "application/json", "application/xml", "application/xhtml+xml":
		return true
	}
	return false
}

// get performs one GET, recording status/headers and, for textual
// types, the truncated body. last marks the final GET of an exchange:
// it asks both ends to close the connection once the page is read.
func (f *Fetcher) get(ctx context.Context, url string, last bool) (*Page, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("User-Agent", DefaultUserAgent)
	req.Close = last
	f.mGets.Inc()
	var start time.Time
	if f.mGetLat != nil {
		start = time.Now()
	}
	resp, err := f.client.Do(req)
	if f.mGetLat != nil {
		f.mGetLat.Observe(time.Since(start))
	}
	if err != nil {
		f.mErrors.Inc()
		return nil, err
	}
	defer resp.Body.Close()
	page := &Page{
		Status:      resp.StatusCode,
		Header:      resp.Header,
		ContentType: resp.Header.Get("Content-Type"),
	}
	if textualType(page.ContentType) {
		// A read error mid-body keeps what arrived; the response
		// itself succeeded.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
		page.Body = body
		f.mBodyBytes.Add(int64(len(body)))
	} else {
		page.BodySkipped = true
	}
	return page, nil
}

// IsTransient reports whether a transport error is worth retrying:
// timeouts (dropped SYNs, stalled reads), mid-stream resets, and
// truncated responses are; refusals — a definitive answer from the
// instance — and cancellations are not.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	// Walk the whole chain rather than stopping at the first net.Error:
	// the HTTP transport wraps a mid-stream reset as
	// url.Error > transport error > net.Error, and the outer url.Error
	// reports Timeout/Temporary false without consulting the cause.
	for e := err; e != nil; e = errors.Unwrap(e) {
		if ne, ok := e.(net.Error); ok && (ne.Timeout() || ne.Temporary()) { //nolint:staticcheck // simulated errors define Temporary meaningfully
			return true
		}
	}
	// Transport errors that flatten the cause into the message.
	return strings.Contains(err.Error(), "connection reset")
}

// getRetry runs the bounded retry schedule for one URL: up to
// Config.Attempts GETs, each under its own Timeout deadline, retrying
// only transient transport errors with exponential backoff.
func (f *Fetcher) getRetry(ctx context.Context, url string, last bool) (*Page, error) {
	var page *Page
	var err error
	for attempt := 0; attempt < f.cfg.Attempts; attempt++ {
		if attempt > 0 {
			f.mRetries.Inc()
			if serr := ratelimit.Sleep(ctx, f.cfg.RetryBackoff<<uint(attempt-1)); serr != nil {
				return nil, err
			}
		}
		actx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
		page, err = f.get(actx, url, last)
		cancel()
		if err == nil {
			return page, nil
		}
		if !IsTransient(err) || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, err
}

// startGetSpan opens the sampled per-IP exchange span, or nil when
// the IP is unsampled (or tracing is off). The span parents to the
// round's fetch span carried by ctx.
func (f *Fetcher) startGetSpan(ctx context.Context, ip ipaddr.Addr) *trace.Span {
	if !f.cfg.Tracer.SampleIP(uint64(ip)) {
		return nil
	}
	attrs := []trace.Attr{
		trace.String("ip", ip.String()),
		trace.String("prefix", ip.Prefix22().String()),
	}
	if f.cfg.RegionOf != nil {
		attrs = append(attrs, trace.String("region", f.cfg.RegionOf(ip)))
	}
	return f.cfg.Tracer.Start("get", trace.FromContext(ctx), attrs...)
}

// errClass compresses a transport error into a span attribute value.
func errClass(err error) string {
	switch {
	case scanner.IsTimeout(err):
		return "timeout"
	case IsTransient(err):
		return "transient"
	default:
		return "error"
	}
}

// FetchIP runs the §4 exchange for one responsive IP: robots.txt
// first, then at most one GET for "/". With Config.Attempts > 1 each
// GET gets the bounded retry schedule; "at most one GET" still holds
// in the §7 sense — one successful page exchange per IP per round.
// Sampled IPs get a "get" span wrapping the exchange; the fault
// injector sees it through the request contexts and annotates the
// faults it injects.
func (f *Fetcher) FetchIP(ctx context.Context, res scanner.Result) Page {
	sp := f.startGetSpan(ctx, res.IP)
	if sp != nil {
		ctx = trace.NewContext(ctx, sp)
	}
	page := f.fetchIP(ctx, res)
	if sp != nil {
		sp.SetAttr(
			trace.String("scheme", page.Scheme),
			trace.Int("status", page.Status),
			trace.Bool("robots_denied", page.RobotsDenied),
		)
		if page.Err != nil {
			sp.SetAttr(trace.String("error", errClass(page.Err)))
		}
		sp.End()
	}
	return page
}

func (f *Fetcher) fetchIP(ctx context.Context, res scanner.Result) Page {
	if f.mFetchLat != nil {
		start := time.Now()
		defer func() { f.mFetchLat.Observe(time.Since(start)) }()
	}
	f.mPages.Inc()
	scheme := "http"
	if res.OpenPorts&store.PortHTTP == 0 {
		scheme = "https"
	}
	out := Page{IP: res.IP, OpenPorts: res.OpenPorts, Scheme: scheme}
	var buf [len("https://255.255.255.255/robots.txt")]byte
	base := res.IP.AppendTo(append(append(buf[:0], scheme...), "://"...))
	robots, err := f.getRetry(ctx, string(append(base, "/robots.txt"...)), false)
	if err == nil && robots.Status == 200 && len(robots.Body) > 0 {
		if RobotsDisallowsRoot(string(robots.Body), DefaultUserAgent) {
			out.RobotsDenied = true
			f.mRobotsDenied.Inc()
			return out
		}
	}

	page, err := f.getRetry(ctx, string(append(base, '/')), true)
	if err != nil {
		out.Err = err
		return out
	}
	out.Status = page.Status
	out.Header = page.Header
	out.ContentType = page.ContentType
	out.Body = page.Body
	out.BodySkipped = page.BodySkipped
	return out
}

// Exchange runs one scan result through the §4 exchange and is the
// unit of work a lane's fetch stage performs per item: SSH-only IPs
// pass straight through as bare responsive pages (nothing to fetch,
// but the record of the responsive IP still flows downstream), web IPs
// go through FetchIP.
func (f *Fetcher) Exchange(ctx context.Context, res scanner.Result) Page {
	if res.OpenPorts&(store.PortHTTP|store.PortHTTPS) == 0 {
		return Page{IP: res.IP, OpenPorts: res.OpenPorts}
	}
	return f.FetchIP(ctx, res)
}

// RobotsDisallowsRoot parses a robots.txt body and reports whether the
// root path is disallowed for the given user agent (matching the
// agent's product token or the wildcard group). Only a "Disallow: /"
// rule blocks the top-level fetch, which is the exclusion the paper
// honors.
func RobotsDisallowsRoot(body, userAgent string) bool {
	product, _, _ := strings.Cut(userAgent, "/")
	token := strings.ToLower(product)
	var inWildcard, inOurs bool
	denyWildcard, denyOurs := false, false
	sawAnyGroup := false
	for body != "" {
		var line string
		line, body, _ = strings.Cut(body, "\n")
		line = strings.TrimSpace(line)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		field := strings.ToLower(strings.TrimSpace(line[:colon]))
		value := strings.TrimSpace(line[colon+1:])
		switch field {
		case "user-agent":
			v := strings.ToLower(value)
			// A new group starts; reset membership when we had already
			// collected rules for the previous group run.
			if sawAnyGroup {
				inWildcard, inOurs = false, false
				sawAnyGroup = false
			}
			if v == "*" {
				inWildcard = true
			}
			if v != "*" && strings.Contains(token, v) {
				inOurs = true
			}
		case "disallow":
			sawAnyGroup = true
			if value == "/" {
				if inWildcard {
					denyWildcard = true
				}
				if inOurs {
					denyOurs = true
				}
			}
		case "allow":
			sawAnyGroup = true
			if value == "/" {
				if inOurs {
					return false
				}
				if inWildcard {
					denyWildcard = false
				}
			}
		}
	}
	if denyOurs {
		return true
	}
	return denyWildcard
}

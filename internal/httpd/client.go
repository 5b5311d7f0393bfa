package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client is the client half of the stack: JSON requests against one
// daemon's base address, with a non-200 answer's ErrorDoc decoded into
// the returned error.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient addresses a daemon at addr ("host:port" or a full
// "http://host:port" URL). timeout bounds each request; zero leaves
// that to the request contexts.
func NewClient(addr string, timeout time.Duration) (*Client, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if _, err := url.Parse(base); err != nil {
		return nil, fmt.Errorf("httpd: bad address %q: %w", addr, err)
	}
	return &Client{base: strings.TrimSuffix(base, "/"), hc: &http.Client{Timeout: timeout}}, nil
}

// StatusError is a non-200 answer: the status and the reason the
// server's ErrorDoc gave.
type StatusError struct {
	Method, Path string
	Code         int
	Reason       string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s %s: %d %s: %s", e.Method, e.Path, e.Code, http.StatusText(e.Code), e.Reason)
}

// GetJSON fetches path and decodes the 200 answer into out.
func (c *Client) GetJSON(ctx context.Context, path string, out any) (int, error) {
	return c.do(ctx, http.MethodGet, path, nil, decodeInto(path, out))
}

// PostJSON posts body as JSON to path and decodes the 200 answer into
// out.
func (c *Client) PostJSON(ctx context.Context, path string, body, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, fmt.Errorf("encoding %s body: %w", path, err)
	}
	return c.do(ctx, http.MethodPost, path, buf, decodeInto(path, out))
}

// GetRaw fetches path and copies the 200 answer's body to w verbatim
// (the Prometheus exposition is text, not JSON).
func (c *Client) GetRaw(ctx context.Context, path string, w io.Writer) (int, error) {
	return c.do(ctx, http.MethodGet, path, nil, func(r io.Reader) error {
		_, err := io.Copy(w, r)
		return err
	})
}

func decodeInto(path string, out any) func(io.Reader) error {
	return func(r io.Reader) error {
		if err := json.NewDecoder(r).Decode(out); err != nil {
			return fmt.Errorf("decoding %s reply: %w", path, err)
		}
		return nil
	}
}

// do runs one exchange. The status code is returned whenever the
// server answered — beside a *StatusError when it is not 200 — so
// callers can react to protocol statuses (409, 410) and still report
// the server's reason.
func (c *Client) do(ctx context.Context, method, path string, body []byte, consume func(io.Reader) error) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		// Drain what the consumer left so the connection is reusable.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		var doc ErrorDoc
		if json.Unmarshal(raw, &doc) != nil || doc.Error == "" {
			doc.Error = strings.TrimSpace(string(raw)) // not one of ours: keep what it said
		}
		return resp.StatusCode, &StatusError{Method: method, Path: req.URL.Path, Code: resp.StatusCode, Reason: doc.Error}
	}
	return resp.StatusCode, consume(resp.Body)
}

// Close releases pooled connections. Idempotent.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

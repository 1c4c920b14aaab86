// Package client is a small typed client for a zkserve server: request
// marshalling, decoding of the binary row stream (ZKR1, which ScanRows
// asks for) and the frame stream, and status-code mapping. It exists for
// cmd/loadgen and the integration tests; it is deliberately thin — one
// HTTP round trip per call, and no retries unless the caller opts in via
// DoWithRetry (which honors the server's 429 Retry-After hint with
// jittered exponential backoff).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// repro/zkserve is imported for the shared wire types (ScanRequest,
// TablesResponse, the row- and frame-stream readers); the client carries
// no wire definitions of its own.
import "repro/zkserve"

// ErrScanFailed reports a stream whose trailer carried a server-side
// error: rows delivered before it are valid, the scan did not finish.
var ErrScanFailed = errors.New("client: scan failed mid-stream")

// StatusError is a non-2xx response, with the server's error message and
// any Retry-After hint (set on 429).
type StatusError struct {
	Code       int
	Msg        string
	RetryAfter string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Code, e.Msg)
}

// RetryAfterDuration parses the response's Retry-After hint as a wait
// duration. Both RFC 9110 forms are understood — delay-seconds and an
// HTTP-date — and ok is false when the header was absent or malformed.
// A date in the past yields zero (retry immediately), never negative.
func (e *StatusError) RetryAfterDuration() (time.Duration, bool) {
	s := strings.TrimSpace(e.RetryAfter)
	if s == "" {
		return 0, false
	}
	if secs, err := strconv.ParseInt(s, 10, 64); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(s); err == nil {
		return max(time.Until(at), 0), true
	}
	return 0, false
}

// IsSaturated reports whether err is a 429 admission refusal.
func IsSaturated(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusTooManyRequests
}

// retryableStatus reports whether a StatusError is worth retrying: 429
// admission refusals and 5xx server errors. 4xx client errors would fail
// identically on every attempt.
func retryableStatus(err error) bool {
	var se *StatusError
	if !errors.As(err, &se) {
		return false
	}
	return se.Code == http.StatusTooManyRequests || se.Code >= 500
}

// RetryPolicy bounds DoWithRetry. The zero value means one attempt (no
// retries), keeping retry behavior strictly opt-in.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, including the first;
	// values below 2 disable retries.
	MaxAttempts int

	// BaseDelay is the backoff before the first retry, doubling per retry;
	// 0 defaults to 50ms. A server Retry-After hint longer than the
	// computed backoff is honored instead.
	BaseDelay time.Duration

	// MaxDelay caps the backoff; 0 defaults to 2s.
	MaxDelay time.Duration
}

// DoWithRetry runs op until it succeeds, fails terminally, exhausts
// p.MaxAttempts, or ctx dies. Only saturation (429) and 5xx server
// errors are retried — everything else is the caller's problem on the
// first attempt. Waits honor the server's Retry-After hint when it is
// longer than the exponential backoff, and jitter uniformly in [d/2, d]
// so a rejected fleet does not return in lockstep. The attempts return
// value counts completed attempts, letting callers report retries
// separately from failures.
func DoWithRetry(ctx context.Context, p RetryPolicy, op func() error) (attempts int, err error) {
	maxAtt := p.MaxAttempts
	if maxAtt < 1 {
		maxAtt = 1
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	for {
		attempts++
		err = op()
		if err == nil || attempts >= maxAtt || !retryableStatus(err) {
			return attempts, err
		}
		d := min(base<<(attempts-1), maxd)
		var se *StatusError
		if errors.As(err, &se) {
			if hint, ok := se.RetryAfterDuration(); ok && hint > d {
				d = min(hint, maxd)
			}
		}
		d = d/2 + rand.N(d/2+1)
		select {
		case <-ctx.Done():
			return attempts, err
		case <-time.After(d):
		}
	}
}

// AnyOf assembles a request's disjunctive predicate: each group of
// specs becomes one alternative (the AND of its specs), and the scan
// keeps a row when any alternative holds alongside the request's
// top-level preds. Servers advertise support as "any_of" in
// TablesResponse.Features; older servers reject the unknown field
// with 400.
func AnyOf(groups ...[]zkserve.PredSpec) []zkserve.PredGroup {
	out := make([]zkserve.PredGroup, len(groups))
	for i, g := range groups {
		out[i] = zkserve.PredGroup{Preds: g}
	}
	return out
}

// Client talks to one zkserve server.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8080"). hc may be nil for http.DefaultClient; pass a
// tuned Transport when driving thousands of concurrent connections.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

func (c *Client) do(ctx context.Context, method, path, accept string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Code: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After")}
		var eb struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&eb) == nil {
			se.Msg = eb.Error
		}
		resp.Body.Close()
		return nil, se
	}
	return resp, nil
}

// Tables fetches the capability listing.
func (c *Client) Tables(ctx context.Context) (zkserve.TablesResponse, error) {
	var out zkserve.TablesResponse
	resp, err := c.do(ctx, http.MethodGet, "/tables", "", nil)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// Aggregate runs an aggregate scan (req.Agg must be set).
func (c *Client) Aggregate(ctx context.Context, req zkserve.ScanRequest) (zkserve.AggResponse, error) {
	var out zkserve.AggResponse
	resp, err := c.do(ctx, http.MethodPost, "/scan", "", req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// ScanResult summarizes one streamed scan.
type ScanResult struct {
	Rows      int64   // rows delivered (or represented, frame mode)
	Truncated bool    // a budget stopped the stream early
	Reason    string  // "rows" or "bytes" when truncated
	ElapsedMS float64 // server-side scan time (row mode only)
	Bytes     int64   // response payload bytes read by this client (binary, both modes)

	// Degraded accounting for skip_corrupt scans: the blocks the server
	// dropped for corruption and the rows they held.
	Degraded      bool
	BlocksSkipped int64
	RowsLost      int64
}

type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// ScanRows streams a row-mode scan, calling fn once per row with the
// global row number and the output column values (the slice is reused
// between calls). fn returning false abandons the stream — the server
// notices the disconnect and stops. A nil fn drains and counts. The rows
// travel as the binary row stream (zkserve.MIMEBinaryRows), decoded a
// block at a time; a server answering in any other format is an error.
func (c *Client) ScanRows(ctx context.Context, req zkserve.ScanRequest, fn func(row int64, vals []int64) bool) (ScanResult, error) {
	resp, err := c.do(ctx, http.MethodPost, "/scan", zkserve.MIMEBinaryRows, req)
	if err != nil {
		return ScanResult{}, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != zkserve.MIMEBinaryRows {
		return ScanResult{}, fmt.Errorf("client: row scan answered with Content-Type %q, want %q", ct, zkserve.MIMEBinaryRows)
	}
	cr := &countingReader{r: resp.Body}
	rr, err := zkserve.NewRowStreamReader(cr)
	if err != nil {
		return ScanResult{}, err
	}
	var res ScanResult
	vals := make([]int64, len(rr.Cols))
	for {
		blk, err := rr.Next()
		if err != nil {
			res.Bytes = cr.n
			return res, fmt.Errorf("%w: %w", ErrScanFailed, err)
		}
		if blk == nil {
			break
		}
		if fn == nil {
			res.Rows += int64(len(blk.Rows))
			continue
		}
		for j, row := range blk.Rows {
			for i, col := range blk.Vals {
				vals[i] = col[j]
			}
			res.Rows++
			if !fn(row, vals) {
				res.Bytes = cr.n
				return res, nil
			}
		}
	}
	t, elapsed := rr.Trailer()
	res.Bytes, res.ElapsedMS = cr.n, float64(elapsed)/float64(time.Millisecond)
	if res.Rows != t.Rows {
		return res, fmt.Errorf("client: row stream delivered %d rows, its trailer says %d", res.Rows, t.Rows)
	}
	return settle(res, t)
}

// settle completes res from a stream's trailer. A truncated row stream's
// message names the budget; an error trailer is ErrScanFailed.
func settle(res ScanResult, t zkserve.FrameTrailer) (ScanResult, error) {
	res.Truncated = t.Status == zkserve.FrameStatusTruncated
	if res.Truncated {
		res.Reason = t.Err
	}
	res.Degraded, res.BlocksSkipped, res.RowsLost = t.Degraded(), t.BlocksSkipped, t.RowsLost
	if t.Status == zkserve.FrameStatusError {
		return res, fmt.Errorf("%w: %s", ErrScanFailed, t.Err)
	}
	return res, nil
}

// ScanFrames streams a frame-mode scan, calling fn once per shipped
// block with its raw compressed frames (decode with
// zukowski.FrameDecoder). fn returning false abandons the stream.
func (c *Client) ScanFrames(ctx context.Context, req zkserve.ScanRequest, fn func(cols []zkserve.FrameStreamCol, blk *zkserve.FrameBlock) bool) (ScanResult, error) {
	resp, err := c.do(ctx, http.MethodPost, "/scan", zkserve.MIMEFrames, req)
	if err != nil {
		return ScanResult{}, err
	}
	defer resp.Body.Close()
	cr := &countingReader{r: resp.Body}
	fr, err := zkserve.NewFrameStreamReader(cr)
	if err != nil {
		return ScanResult{}, err
	}
	var res ScanResult
	for {
		blk, err := fr.Next()
		if err != nil {
			res.Bytes = cr.n
			return res, err
		}
		if blk == nil {
			break
		}
		if fn != nil && !fn(fr.Cols, blk) {
			res.Bytes = cr.n
			return res, nil
		}
	}
	t := fr.Trailer()
	res.Rows, res.Bytes = t.Rows, cr.n
	return settle(res, t)
}

// Healthy reports whether /healthz answers 200.
func (c *Client) Healthy(ctx context.Context) bool {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", "", nil)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return true
}

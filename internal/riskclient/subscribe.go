// SSE verdict subscriptions: the client side of riskd's
// GET /v1/assess/subscribe. A Subscription is a long-lived stream, so it
// deliberately bypasses the retry/backoff machinery — reconnect policy
// belongs to the caller, who knows whether a dropped watch matters — and
// does not consume breaker budget (the breaker protects request/response
// calls; a stream that dies reports it through Next and stays dead).
package riskclient

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/server"
)

// ErrServerDraining reports a stream closed by the server's terminal
// shutdown event: riskd flipped /readyz to 503 and is draining. The client
// should reconnect elsewhere (or to the same address after the restart), not
// treat the close as a failure.
var ErrServerDraining = errors.New("riskclient: server draining")

// Subscription is a live verdict stream. Not safe for concurrent Next calls.
type Subscription struct {
	body io.ReadCloser
	br   *bufio.Reader
}

// Subscribe opens a verdict stream for a table digest (from a previous
// assessment's response). p selects the recipe options of the verdicts
// the stream's initial event carries, as they do in a request body; nil,
// or an unset field, takes the server default, and TimeoutMS is not sent:
// the initial verdict runs under the server's own budget. The returned
// Subscription's first Next is the current verdict; later Nexts deliver
// fresh verdicts as deltas evolve the watched table, following the digest
// chain. ctx bounds the whole stream: canceling it unblocks Next with the
// context error.
func (c *Client) Subscribe(ctx context.Context, digest string, p *server.Params) (*Subscription, error) {
	q := url.Values{"digest": {digest}}
	if p != nil {
		if p.Tau != nil {
			q.Set("tau", strconv.FormatFloat(*p.Tau, 'g', -1, 64))
		}
		if p.Runs > 0 {
			q.Set("runs", strconv.Itoa(p.Runs))
		}
		if p.Seed != nil {
			q.Set("seed", strconv.FormatInt(*p.Seed, 10))
		}
		if p.Comfort > 0 {
			q.Set("comfort", strconv.FormatFloat(p.Comfort, 'g', -1, 64))
		}
		if p.Propagate != nil {
			q.Set("propagate", strconv.FormatBool(*p.Propagate))
		}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/assess/subscribe?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	hresp, err := c.cfg.HTTPClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(hresp.Body, 1<<16))
		hresp.Body.Close()
		return nil, &HTTPError{
			Status:     hresp.StatusCode,
			Body:       string(raw),
			RetryAfter: parseRetryAfter(hresp.Header.Get("Retry-After"), c.cfg.Now()),
		}
	}
	return &Subscription{body: hresp.Body, br: bufio.NewReader(hresp.Body)}, nil
}

// Next blocks for the next verdict. It returns ErrServerDraining when the
// server sent its terminal shutdown event, io.EOF (or the subscribe
// context's error) when the stream ended without one.
func (sub *Subscription) Next() (*server.DeltaResponse, error) {
	for {
		name, data, err := sub.readEvent()
		if err != nil {
			return nil, err
		}
		switch name {
		case "verdict":
			var v server.DeltaResponse
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				return nil, fmt.Errorf("riskclient: decoding verdict event: %w", err)
			}
			return &v, nil
		case "shutdown":
			return nil, ErrServerDraining
		}
		// Unknown event names are skipped for forward compatibility.
	}
}

// readEvent parses one Server-Sent Event, skipping keep-alive comments.
func (sub *Subscription) readEvent() (name, data string, err error) {
	for {
		line, err := sub.br.ReadString('\n')
		if err != nil {
			return "", "", err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, ":"): // comment / keep-alive
		case strings.HasPrefix(line, "event:"):
			name = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "":
			if name != "" || data != "" {
				return name, data, nil
			}
		}
	}
}

// Close tears the stream down. Safe after any Next error.
func (sub *Subscription) Close() error { return sub.body.Close() }

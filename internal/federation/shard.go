package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// ShardClient is the router's view of one metascheduler shard. HTTPShard,
// which speaks the wire protocol to a remote gridd process, is the only
// production implementation; the interface is the seam through which tests
// substitute in-process and scripted shards.
type ShardClient interface {
	// Name is the shard's ring name.
	Name() string
	// Handoff delivers one framed job handoff and returns the shard's
	// durable answer. A transport error means "unknown outcome": the shard
	// may or may not have accepted — exactly the case idempotency keys and
	// confirmed revocation exist for.
	Handoff(ctx context.Context, h *Handoff) (*HandoffResult, error)
	// Revoke asks the shard to give a job back; see the RevokeOutcome
	// constants for the three confirmed answers.
	Revoke(ctx context.Context, req *RevokeRequest) (*RevokeResult, error)
	// Ping is the heartbeat probe: nil when the shard answered.
	Ping(ctx context.Context) error
}

// HTTPShard talks the wire protocol to a remote shard.
type HTTPShard struct {
	name   string
	base   string // e.g. http://127.0.0.1:8081
	client *http.Client
}

// NewHTTPShard builds a client for the shard at base. client nil uses
// http.DefaultClient; the router injects fault transports here in the
// chaos harness.
func NewHTTPShard(name, base string, client *http.Client) *HTTPShard {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPShard{name: name, base: base, client: client}
}

// Name implements ShardClient.
func (s *HTTPShard) Name() string { return s.name }

// Handoff implements ShardClient. Any HTTP status still carrying a
// decodable HandoffResult is a durable shard answer, not a transport
// error.
func (s *HTTPShard) Handoff(ctx context.Context, h *Handoff) (*HandoffResult, error) {
	frame, err := newFrame(h)
	if err != nil {
		return nil, err
	}
	defer releaseFrame(frame)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/federation/handoff", nil)
	if err != nil {
		return nil, err
	}
	req.Body = newFrameBody(frame)
	req.ContentLength = int64(frame.Len())
	req.GetBody = func() (io.ReadCloser, error) { return newFrameBody(frame), nil }
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var res HandoffResult
	if err := decodeJSONBody(resp.Body, 1<<20, &res); err != nil {
		return nil, fmt.Errorf("federation: shard %s handoff answered %d with undecodable body: %w", s.name, resp.StatusCode, err)
	}
	return &res, nil
}

// Revoke implements ShardClient.
func (s *HTTPShard) Revoke(ctx context.Context, req *RevokeRequest) (*RevokeResult, error) {
	var res RevokeResult
	if err := callJSON(ctx, s.client, http.MethodPost, s.base+"/v1/federation/revoke", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Ping implements ShardClient.
func (s *HTTPShard) Ping(ctx context.Context) error {
	return callJSON(ctx, s.client, http.MethodGet, s.base+"/v1/federation/ping", nil, nil)
}

// callJSON is one JSON round trip on the federation wire, the handoff frame
// aside: it sends in, marshalled (no body when in is nil), and decodes a 200
// answer of at most maxFrameBytes into out (out nil discards it). Any status
// but 200 is an error naming it. The answer is read to its end either way,
// so the connection is kept.
func callJSON(ctx context.Context, client *http.Client, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("federation: %s %s answered %d", method, url, resp.StatusCode)
	} else if out != nil {
		err = decodeJSONBody(resp.Body, maxFrameBytes, out)
	}
	io.Copy(io.Discard, resp.Body)
	return err
}

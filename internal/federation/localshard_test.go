package federation

import (
	"context"

	"repro/internal/service"
)

// LocalShard adapts an in-process service.Server to ShardClient. The
// handoff still round-trips through the wire codec so local and remote
// shards exercise identical encode/validate/decode paths.
type LocalShard struct {
	name string
	svc  *service.Server
}

// NewLocalShard wraps svc as the named shard.
func NewLocalShard(name string, svc *service.Server) *LocalShard {
	return &LocalShard{name: name, svc: svc}
}

// Name implements ShardClient.
func (l *LocalShard) Name() string { return l.name }

// Service returns the wrapped server.
func (l *LocalShard) Service() *service.Server { return l.svc }

// Handoff implements ShardClient via the shared ApplyHandoff semantics,
// after a codec round trip.
func (l *LocalShard) Handoff(ctx context.Context, h *Handoff) (*HandoffResult, error) {
	frame, err := EncodeHandoff(h)
	if err != nil {
		return nil, err
	}
	decoded, err := DecodeHandoff(frame)
	if err != nil {
		return nil, err
	}
	return ApplyHandoff(ctx, l.svc, decoded), nil
}

// Revoke implements ShardClient.
func (l *LocalShard) Revoke(ctx context.Context, req *RevokeRequest) (*RevokeResult, error) {
	return ApplyRevoke(l.svc, req), nil
}

// Ping implements ShardClient.
func (l *LocalShard) Ping(ctx context.Context) error { return nil }

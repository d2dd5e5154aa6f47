// Package fleet names the multi-tenant configuration of the stream
// server: one shared stream.Pool with per-tenant admission control and
// deficit-round-robin scheduling, whose full stream queues shed frames
// instead of stalling the socket. The server and pool live in
// internal/stream; this package keeps the names the benchmark builds on.
package fleet

import "caliqec/internal/stream"

// Config, TenantConfig and Server are the stream package's types.
type (
	Config       = stream.Config
	TenantConfig = stream.TenantConfig
	Server       = stream.Server
)

// NewServer returns a server whose pool sheds: it sets cfg.Backpressure to
// stream.Shed.
func NewServer(cfg Config, resolve func(stream.Header) (stream.FrameScorer, error)) *Server {
	cfg.Backpressure = stream.Shed
	return stream.NewServer(cfg, resolve)
}

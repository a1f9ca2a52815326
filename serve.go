package hyrisenv

import (
	"context"
	"time"

	"hyrisenv/internal/server"
)

// ServerConfig tunes DB.Serve. The zero value picks sensible defaults.
type ServerConfig struct {
	// MaxConns caps concurrently served connections (default 1024).
	MaxConns int
	// MaxFrame bounds request/response payloads in bytes (default 16 MiB).
	MaxFrame uint32
	// IdleTimeout disconnects clients idle this long (default 5 m).
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response frame (default 30 s).
	WriteTimeout time.Duration
	// MaxConcurrent caps requests executing concurrently across all
	// connections (default 64×GOMAXPROCS; negative disables admission
	// control).
	MaxConcurrent int
	// AdmissionQueue bounds requests waiting for an execution slot
	// before fast-reject (default 4×MaxConcurrent).
	AdmissionQueue int
	// AdmissionWait bounds how long one request waits for an execution
	// slot before an overloaded reply (default 25 ms).
	AdmissionWait time.Duration
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Server serves a DB over TCP; see the client package for the matching
// client. Obtain one with DB.Serve.
type Server struct {
	s *server.Server
}

// Serve starts serving the database on addr (e.g. "127.0.0.1:4466";
// port 0 picks a free port) using the binary wire protocol understood by
// the client package and the hyrise-nvd daemon. The server runs in
// background goroutines until Shutdown or Close.
//
// The DB stays owned by the caller: stopping the server does not close
// it. The intended shutdown order is srv.Shutdown(ctx), then db.Close()
// — and because Close is idempotent, racing signal handlers that follow
// the same order are safe.
func (db *DB) Serve(addr string, cfg ServerConfig) (*Server, error) {
	s, err := server.Listen(db.eng, addr, server.Config{
		MaxConns:       cfg.MaxConns,
		MaxFrame:       cfg.MaxFrame,
		IdleTimeout:    cfg.IdleTimeout,
		WriteTimeout:   cfg.WriteTimeout,
		MaxConcurrent:  cfg.MaxConcurrent,
		AdmissionQueue: cfg.AdmissionQueue,
		AdmissionWait:  cfg.AdmissionWait,
		Logf:           cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &Server{s: s}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.s.Addr() }

// NumConns reports the live connection count.
func (s *Server) NumConns() int { return s.s.NumConns() }

// Rejected reports how many requests the admission stage fast-rejected
// with an overloaded error since the server started.
func (s *Server) Rejected() uint64 { return s.s.Rejected() }

// Shutdown drains the server gracefully: no new connections; until ctx
// expires, requests of transactions already open still execute while new
// work is refused; then open transactions are aborted.
func (s *Server) Shutdown(ctx context.Context) error { return s.s.Shutdown(ctx) }

// Close stops the server immediately, aborting open transactions.
func (s *Server) Close() error { return s.s.Close() }

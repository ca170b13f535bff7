// Command xsp-server runs a standalone XSP tracing server: the process
// around internal/server, whose package comment describes everything the
// server does. This file binds the flags, listens, and handles signals.
//
//	xsp-server -addr 127.0.0.1:7777 -data-dir /var/lib/xsp
//
// Tracers POST spans to /api/spans and read the timeline back from
// /api/trace (resolved: /api/correlated; analysed: /api/analysis). The
// resolved listen address goes to stderr ("listening on <addr>"), so a
// supervisor can pass ":0" and parse the port. SIGTERM or SIGINT shuts the
// server down cleanly — stop accepting, finish the requests in flight, drain
// every tenant's tap, close its store — and exits 0; SIGKILL loses nothing
// that was acknowledged either.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xsp/internal/gpu"
	"xsp/internal/server"
)

// shutdownDeadline is how long a signalled server waits for the requests in
// flight before it cuts their connections.
const shutdownDeadline = 10 * time.Second

// bindFlags declares the server's flags on fs, each into its Config field,
// and returns the listen address.
func bindFlags(fs *flag.FlagSet, cfg *server.Config) *string {
	addr := fs.String("addr", "127.0.0.1:7777", "listen address")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "directory for the durable segment stores + WALs, one per tenant (default tenant at the root, others under tenants/<key>); batches are fsynced before they are acknowledged and each tenant's streaming state recovers exactly on restart")
	fs.DurationVar(&cfg.ReorderWindow, "reorder-window", time.Millisecond, "virtual-time arrival skew the streaming correlator absorbs in order")
	fs.DurationVar(&cfg.Retain, "retain", 0, "virtual-time length of finalized history kept live for cheap straggler repair; older history folds into checkpoints (0 keeps everything live)")
	fs.DurationVar(&cfg.CorrRetain, "corr-retain", 0, "virtual-time retention horizon for correlation-id entries — size to the device queue depth; execs later than this resolve by containment (0 retains forever)")
	fs.IntVar(&cfg.MaxInflightSpans, "max-inflight-spans", 0, "per-tenant admission budget: decoded spans not yet landed plus the tenant's tap queue backlog; past it the tenant's span POSTs shed with 429 (0 unlimited)")
	fs.Int64Var(&cfg.MaxInflightBytes, "max-inflight-bytes", 0, "process-wide admission budget: request body bytes in flight, reserved from Content-Length; past it span POSTs shed with 429 (0 unlimited)")
	fs.DurationVar(&cfg.RetryAfter, "retry-after", time.Second, "Retry-After hint on 429/503 push-backs")
	fs.Bool("live-analysis", false, "accepted and ignored: the paper's analyses are always maintained online per tenant as spans stream in, served by GET /api/analysis/{layers,launchgaps,memcpy,roofline} as JSON or SSE")
	fs.StringVar(&cfg.GPU, "gpu", gpu.TeslaV100.Name, "GPU system the live analyses classify kernels against (roofline ridge point); one of the paper's Table VII systems")
	return addr
}

func main() {
	var cfg server.Config
	addr := bindFlags(flag.CommandLine, &cfg)
	flag.Parse()
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsp-server: %v\n", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xsp-server: %v\n", err)
		os.Exit(1)
	}
	// The resolved address (meaningful with ":0") goes to stderr so a
	// supervising process can parse the port.
	fmt.Fprintf(os.Stderr, "xsp-server: tracing server listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,                                   // and no WriteTimeout: the server bounds each reply itself, all but /api/analysis's stream
		BaseContext:       func(net.Listener) context.Context { return ctx }, // a signal ends the SSE watchers
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		stop() // a second signal kills at once
		deadline, cancel := context.WithTimeout(context.Background(), shutdownDeadline)
		defer cancel()
		if hs.Shutdown(deadline) != nil {
			hs.Close() // past the deadline: cut what is still connected
		}
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "xsp-server: %v\n", err)
		os.Exit(1)
	}
	<-drained
	srv.Close()
}

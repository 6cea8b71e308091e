// Command paqoc-server runs the PAQOC pulse-compilation service: a
// resident HTTP process with a bounded job queue, a compilation worker
// pool, and a warm pulse database shared across every request — loaded
// from -db at startup, snapshotted periodically, and persisted on
// shutdown.
//
// Usage:
//
//	paqoc-server -addr :8080 -db pulses.db
//
// Endpoints: POST /v1/compile, GET /v1/jobs/{id}, GET /v1/jobs/{id}/events
// (live SSE job stream), GET /v1/mining/status (when -mine-interval > 0),
// GET /healthz, GET /readyz, and GET /metrics
// (JSON; ?format=text for a table, ?format=prom for Prometheus text
// exposition). The unauthenticated /debug/pprof
// endpoints are not on the API mux; -pprof <addr> serves them on a
// separate (loopback) listener. See the README's "Running the service"
// section for curl examples.
//
// On SIGTERM or SIGINT the server stops accepting work (readyz flips to
// 503 so load balancers drain it), finishes queued and in-flight jobs
// within -drain, cancels stragglers, saves the pulse database
// crash-safely, and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"paqoc/internal/device"
	"paqoc/internal/obs"
	"paqoc/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paqoc-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "localhost:8080", "listen address")
		dbPath    = flag.String("db", "", "pulse-database file: loaded at startup, snapshotted periodically and on shutdown")
		dbMax     = flag.Int("db-max-entries", 0, "bound the warm pulse DB to this many entries, evicting cold ones (0 = unbounded)")
		workers   = flag.Int("workers", 0, "concurrent compilation jobs (default GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "bounded job-queue depth; a full queue returns 429")
		syncGates = flag.Int("sync-gates", 48, "auto-mode sync threshold in logical gates")
		timeout   = flag.Duration("timeout", 2*time.Minute, "default per-job deadline")
		maxTO     = flag.Duration("max-timeout", 10*time.Minute, "cap on client-requested deadlines")
		snapshot  = flag.Duration("snapshot", 5*time.Minute, "pulse-DB snapshot interval (requires -db; <0 disables)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		backend   = flag.String("backend", device.DefaultName, "default device profile: a registered name or a dynamic one like xy-grid-3x4 (requests may override per job)")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof on this separate address (e.g. localhost:6060); empty disables")

		peers         = flag.String("peers", "", "comma-separated replica addresses (host:port of each replica's -cluster-listen) forming the warm-store replication group; empty = standalone")
		clusterListen = flag.String("cluster-listen", "", "serve the internal replication RPC on this separate (private) address; required when -peers is set")
		clusterSelf   = flag.String("cluster-self", "", "this replica's advertised address in -peers (default: -cluster-listen)")
		clusterRPCTO  = flag.Duration("cluster-timeout", 2*time.Second, "per-peer replication RPC timeout")
		tenantMax     = flag.Int("tenant-max-inflight", 0, "per-tenant cap on queued+running jobs; a tenant at the cap gets 429 (0 = unlimited)")

		mineInterval   = flag.Duration("mine-interval", 0, "offline APA mining run cadence; folds served circuits into cross-request pattern tables and pre-generates frequent patterns' pulses while the queue is idle (0 disables)")
		mineMinSupport = flag.Int("mine-min-support", 2, "miner's cross-request recurrence threshold: a pattern must occur this many times across the corpus")
		mineCorpusMax  = flag.Int("mine-corpus-max", 256, "bound on the miner's per-backend circuit corpus; past it the oldest circuit is evicted")
		mineBudget     = flag.Int("mine-budget", 4, "max pulses pre-generated per idle mining run")
	)
	var logLevel slog.Level
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "structured-log threshold: debug, info, warn, or error")
	flag.Parse()

	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
		if *clusterListen == "" {
			return fmt.Errorf("-peers requires -cluster-listen (the private replication listener)")
		}
	}
	self := *clusterSelf
	if self == "" {
		self = *clusterListen
	}

	logger := obs.NewLogger(os.Stderr, logLevel)
	srv, err := server.New(server.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		SyncGateLimit:     *syncGates,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTO,
		DBPath:            *dbPath,
		DBMaxEntries:      *dbMax,
		SnapshotInterval:  *snapshot,
		Backend:           *backend,
		Logger:            logger,
		ClusterSelf:       self,
		ClusterPeers:      peerList,
		ClusterTimeout:    *clusterRPCTO,
		TenantMaxInflight: *tenantMax,
		MineInterval:      *mineInterval,
		MineMinSupport:    *mineMinSupport,
		MineCorpusMax:     *mineCorpusMax,
		MineBudget:        *mineBudget,
	})
	if err != nil {
		return err
	}
	srv.Start()

	// pprof lives on its own listener, never the API address: the
	// profiling endpoints are unauthenticated, and -addr may be public.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %v", err)
		}
		pprofSrv := &http.Server{Handler: server.PprofHandler()}
		go func() { _ = pprofSrv.Serve(pln) }()
		defer pprofSrv.Close()
		logger.Info("pprof serving", "addr", fmt.Sprintf("http://%s/debug/pprof/", pln.Addr()))
	}

	// The replication RPC, like pprof, lives on its own listener: it is
	// unauthenticated and mutates the warm store, so it must stay on a
	// private (replica-to-replica) network, never the public API address.
	if *clusterListen != "" {
		cln, err := net.Listen("tcp", *clusterListen)
		if err != nil {
			return fmt.Errorf("cluster: %v", err)
		}
		clSrv := &http.Server{Handler: srv.ClusterHandler()}
		go func() { _ = clSrv.Serve(cln) }()
		defer clSrv.Close()
		logger.Info("cluster replication serving", "addr", cln.Addr().String(),
			"self", self, "peers", *peers)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	logger.Info("serving", "addr", fmt.Sprintf("http://%s", ln.Addr()),
		"backend", *backend, "workers", *workers, "queue", *queue, "db", *dbPath)

	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-sigCtx.Done():
	}
	logger.Info("signal received, draining", "deadline", drain.String())

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain connections and the job queue concurrently: finishing jobs is
	// what unblocks synchronous requests, so the two must overlap.
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Shutdown(drainCtx) }()
	jobErr := srv.Shutdown(drainCtx)
	httpErr := <-httpDone
	<-errCh
	if jobErr != nil {
		return jobErr
	}
	return httpErr
}

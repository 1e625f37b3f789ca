// Command serve runs the incremental Datalog(≠) service: a versioned EDB
// store with registered programs maintained incrementally across commits,
// served over HTTP+JSON.
//
// Usage:
//
//	serve [-addr :8344] [-universe 64] [-history 64]
//	      [-workers 0] [-query-timeout 0] [-pprof]
//	      [-facts db.facts] [-program prog.dl] [-name main]
//	      [-data-dir dir] [-fsync always] [-fsync-interval 2ms]
//	      [-checkpoint-every 256] [-segment-bytes 8388608]
//	      [-sub-buffer 64] [-sub-history 0]
//
// With -facts the file's database is committed as version 1 at startup;
// with -program the file is registered under -name before serving.
// -query-timeout bounds each query's queueing plus evaluation; -pprof
// exposes net/http/pprof under /debug/pprof/ on the same listener.
//
// With -data-dir the service is durable: commits and registrations are
// appended to a checksummed write-ahead log under the directory and
// replayed on startup, so a restart resumes at the last durable version
// with every program re-registered and its view re-derived. -fsync picks
// the durability/latency trade (always | interval | none), -fsync-interval
// sizes the group-commit window for "interval", -checkpoint-every bounds
// replay length (and WAL disk footprint) in commits, and -segment-bytes
// sizes WAL segment files.
//
// Endpoints (all under /v1; the unversioned paths they replaced are 404):
//
//	POST /v1/register    {"name":"tc","program":"S(x,y) :- E(x,y). ... goal S."}
//	POST /v1/unregister  {"name":"tc"}
//	POST /v1/commit      {"insert":[{"pred":"E","tuple":[0,1]}],"delete":[...]}
//	POST /v1/query       {"program":"tc","pred":"S","version":3,"tuple":[0,1]}
//	POST /v1/explain     {"program":"tc","bind":[0,null]}
//	GET  /v1/subscribe   ?program=tc&preds=S&goal=S(0,_)&from=-1  (SSE delta stream)
//	GET  /v1/stats
//	GET  /v1/metrics     (?format=prometheus for exposition text)
//
// Requests are logged as structured slog lines with request IDs (taken
// from X-Request-Id or generated). SIGINT/SIGTERM drain the listener,
// abort in-flight evaluations, and exit cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	universe := flag.Int("universe", 64, "EDB universe size {0..n-1}")
	history := flag.Int("history", 64, "EDB versions kept queryable")
	workers := flag.Int("workers", 0, "max concurrent from-scratch evaluations (0 = GOMAXPROCS)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline covering queueing and evaluation (0 = none)")
	withPprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	factsPath := flag.String("facts", "", "facts file committed as version 1 at startup")
	progPath := flag.String("program", "", "program file registered at startup")
	progName := flag.String("name", "main", "registration name for -program")
	dataDir := flag.String("data-dir", "", "durable storage directory (empty = memory-only)")
	fsync := flag.String("fsync", "always", "WAL sync policy: always | interval | none")
	fsyncInterval := flag.Duration("fsync-interval", 2*time.Millisecond, "group-commit window for -fsync interval")
	checkpointEvery := flag.Int("checkpoint-every", 256, "commits between snapshot checkpoints (negative = never)")
	segmentBytes := flag.Int64("segment-bytes", 8<<20, "WAL segment size before rotation")
	subBuffer := flag.Int("sub-buffer", 64, "default per-subscriber event buffer for /v1/subscribe")
	subHistory := flag.Int("sub-history", 0, "commits retained for subscription resume (0 = -history)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	svc, err := service.New(service.Config{
		Universe:         *universe,
		History:          *history,
		Workers:          *workers,
		QueryTimeout:     *queryTimeout,
		DataDir:          *dataDir,
		Fsync:            *fsync,
		FsyncInterval:    *fsyncInterval,
		CheckpointEvery:  *checkpointEvery,
		SegmentBytes:     *segmentBytes,
		SubscribeBuffer:  *subBuffer,
		SubscribeHistory: *subHistory,
	})
	fatalIf(err)
	defer svc.Close()

	if rec := svc.Recovery(); rec.Enabled {
		logger.Info("recovered durable state",
			"dir", *dataDir, "fsync", *fsync,
			"version", rec.Version, "checkpoint_version", rec.CheckpointVersion,
			"replayed_commits", rec.ReplayedCommits, "programs", rec.Programs)
		if rec.TornTail || rec.CorruptRecords > 0 || rec.BadCheckpoints > 0 {
			logger.Warn("recovery discarded damaged log data",
				"torn_tail", rec.TornTail, "corrupt_records", rec.CorruptRecords,
				"dropped_bytes", rec.DroppedBytes, "bad_checkpoints", rec.BadCheckpoints)
		}
	}

	if *factsPath != "" {
		b, err := os.ReadFile(*factsPath)
		fatalIf(err)
		db, err := core.ParseDatabase(string(b))
		fatalIf(err)
		if db.N > *universe {
			fatalIf(fmt.Errorf("facts universe %d exceeds -universe %d", db.N, *universe))
		}
		var facts []datalog.Fact
		for _, name := range db.Names() {
			for _, t := range db.Relation(name).Tuples() {
				facts = append(facts, datalog.Fact{Pred: name, Tuple: t})
			}
		}
		info, err := svc.Commit(facts, nil)
		fatalIf(err)
		logger.Info("loaded facts", "path", *factsPath, "facts", info.Inserted, "version", info.Version)
	}
	if *progPath != "" {
		b, err := os.ReadFile(*progPath)
		fatalIf(err)
		info, err := svc.Register(*progName, string(b))
		fatalIf(err)
		logger.Info("registered program",
			"path", *progPath, "name", info.Name, "hash", info.Hash[:12], "version", info.Version)
	}

	mux := http.NewServeMux()
	mux.Handle("/", service.LogRequests(logger, svc.Handler()))
	if *withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	server := newServer(*addr, mux)

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Stop accepting, drain handlers, then abort whatever is still
		// evaluating — queries in flight past the drain window fail with
		// a 503 rather than holding shutdown hostage.
		if err := server.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		if err := svc.Close(); err != nil {
			logger.Error("closing durable log", "err", err)
		}
	}()

	logger.Info("serving Datalog(≠)",
		"addr", *addr, "universe", *universe, "history", *history,
		"query_timeout", *queryTimeout)
	if err := server.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatalIf(err)
	}
	<-done
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers. Without it a client that opens connections and trickles
// header bytes holds each one, and its goroutine, for as long as it likes.
// Bodies and responses are not bounded: an NDJSON answer or an SSE
// subscription legitimately lasts as long as the client reads it.
const readHeaderTimeout = 10 * time.Second

// newServer returns the HTTP server cmd/serve listens with.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

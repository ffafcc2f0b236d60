// vidi-serve is the multi-tenant record/replay service: tenants open
// recording sessions over HTTP, stream CRC/sequenced storage frames into a
// crash-safe content-addressed trace store, and queue replay/compare/
// diagnose jobs executed by a bounded worker pool. Every start replays each
// run's log and quarantines torn or damaged artifacts before serving.
//
// Usage:
//
//	vidi-serve -root artifacts -addr :9412     # serve
//	vidi-serve -chaos                          # run the service fault matrix and exit
//
// Observability: GET /metrics serves Prometheus text (vidi-top -url
// renders it), GET /healthz the breaker and session state, GET
// /v1/recovery the startup recovery report, GET /v1/slow the
// slowest-request exemplars with per-stage timings. -log text|json emits
// one structured line per completed request and job, each carrying the
// X-Vidi-Request-Id that ties client and server records together.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"vidi/internal/serve"
	"vidi/internal/telemetry"
)

func main() {
	root := flag.String("root", "artifacts", "trace store root directory")
	addr := flag.String("addr", ":9412", "listen address")
	chaos := flag.Bool("chaos", false, "run the chaos fault matrix against a live in-process server, report, and exit")
	scale := flag.Int("scale", 1, "workload scale for -chaos")
	seed := flag.Int64("seed", 42, "seed for -chaos and store retry jitter")
	tenantSessions := flag.Int("tenant-sessions", 0, "max open sessions per tenant (0 = default)")
	maxSessions := flag.Int("max-sessions", 0, "max open sessions server-wide (0 = default)")
	workers := flag.Int("workers", 0, "replay job workers (0 = default)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request deadline (0 = default)")
	logMode := flag.String("log", "off", "structured request logging: off|text|json")
	slowRequests := flag.Int("slow-requests", 0, "slow-request exemplar ring size for /v1/slow (0 = default)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "vidi-serve:", err)
		os.Exit(1)
	}

	var logger *slog.Logger
	switch *logMode {
	case "off":
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fail(fmt.Errorf("-log %q: want off, text, or json", *logMode))
	}

	if *chaos {
		dir, err := os.MkdirTemp("", "vidi-serve-chaos-")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(dir)
		report, err := serve.RunChaosMatrix(serve.ChaosOptions{
			Root:  dir,
			Scale: *scale,
			Seed:  *seed,
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fail(err)
		}
		fmt.Print(report.String())
		if fails := report.Failures(); len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "FAIL:", f)
			}
			os.Exit(1)
		}
		fmt.Println("chaos matrix passed: zero corrupted manifests, zero silent divergences")
		return
	}

	st, rec, err := serve.OpenStore(*root, serve.StoreOptions{JitterSeed: *seed})
	if err != nil {
		fail(err)
	}
	fmt.Println(rec.String())

	sink := telemetry.New(telemetry.WithConstLabels(telemetry.L("service", "vidi-serve")))
	srv := serve.NewServer(st, serve.ServerOptions{
		Limits: serve.Limits{
			MaxSessionsPerTenant: *tenantSessions,
			MaxOpenSessions:      *maxSessions,
			Workers:              *workers,
			RequestTimeout:       *reqTimeout,
		},
		Sink:         sink,
		Recovery:     rec,
		Logger:       logger,
		SlowRequests: *slowRequests,
	})
	defer srv.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("vidi-serve: listening on %s, store root %s\n", *addr, *root)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fail(err)
	}
}

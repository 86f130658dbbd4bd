// Command curved serves CPI/miss-ratio/bandwidth curves over HTTP:
// the profiling-as-a-service front end to the replay engines in
// internal/simulate. Traces are uploaded once into a content-addressed
// store; curve requests are deduplicated in flight, cached by result,
// and bounded by a job queue so an overloaded server degrades with
// 429s instead of latency collapse.
//
// Quickstart:
//
//	curved -addr :8080 -store /var/lib/curved &
//	go run ./cmd/tracer -workload mcf -records 2000000 -o mcf.trace
//	curl --data-binary @mcf.trace http://localhost:8080/v1/traces
//	curl "http://localhost:8080/v1/curves?trace=<hash>&engine=fused"
//
// See DESIGN.md §14 for the API and error taxonomy.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cachepirate/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		storeDir   = flag.String("store", "curved-store", "trace store directory")
		cacheBytes = flag.Int64("cache-bytes", 64<<20, "result cache budget in bytes (negative disables)")
		workers    = flag.Int("workers", 0, "job queue workers (0 = GOMAXPROCS)")
		sweepJ     = flag.Int("sweep-j", 1, "replica groups replayed at once per fused-sweep job (1 = one job per queue slot; curves are identical at any width)")
		backlog    = flag.Int("backlog", 0, "queued jobs beyond running before 429 (0 = 4x workers)")
		jobTimeout = flag.Duration("job-timeout", 120*time.Second, "per-job deadline")
		maxUpload  = flag.Int64("max-upload", 256<<20, "largest accepted trace upload in bytes")
	)
	flag.Parse()
	if err := run(*addr, *storeDir, *cacheBytes, *workers, *sweepJ, *backlog, *jobTimeout, *maxUpload); err != nil {
		fmt.Fprintln(os.Stderr, "curved:", err)
		os.Exit(1)
	}
}

func run(addr, storeDir string, cacheBytes int64, workers, sweepWorkers, backlog int, jobTimeout time.Duration, maxUpload int64) error {
	store, err := server.NewStore(storeDir)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Store:          store,
		CacheBytes:     cacheBytes,
		Workers:        workers,
		SweepWorkers:   sweepWorkers,
		Backlog:        backlog,
		JobTimeout:     jobTimeout,
		MaxUploadBytes: maxUpload,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("curved: listening on %s (store %s, %d traces)", addr, storeDir, store.Len())
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("curved: %v, draining", sig)
	}

	// Stop accepting connections, let in-flight requests (and their
	// queued jobs) finish, then shut the queue down.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = httpSrv.Shutdown(ctx)
	srv.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("curved: drained cleanly")
	return nil
}

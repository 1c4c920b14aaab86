// Command zkserved serves columnar scans over HTTP. It registers every
// table found under -data (one zktable directory per table: a manifest
// and its segments' column containers; a subdirectory of loose .zkc
// containers is refused) and exposes POST /scan, GET /tables, GET
// /healthz and GET /metrics via the zkserve package: predicate pushdown
// into the compressed-domain scan engine, admission control with 429
// shedding, per-query row/byte/time budgets, Prometheus metrics and
// structured request logs.
//
// Column reads retry transient I/O failures with jittered backoff
// (-retry-attempts, -retry-base); blocks whose checksum mismatch
// persists are quarantined and surface in /tables, /healthz and the
// zkserve_blocks_quarantined metric. Clients can opt a scan into
// degraded mode ("skip_corrupt": true) to skip quarantined or corrupt
// blocks and get exact loss accounting in the stream trailer.
//
// SIGTERM or SIGINT starts a graceful drain: /healthz flips to 503 so
// load balancers stop routing here, in-flight scans get -drain-grace to
// finish, then the listener closes.
//
// Examples:
//
//	zkserved -data /var/lib/zkc -addr :8080
//	zkserved -data /tmp/demo -gen demo:1000000:4 -slots 64 -max-duration 5s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultio"
	"repro/zkserve"
	"repro/zukowski"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		data        = flag.String("data", "", "data directory (one subdirectory per table)")
		gen         = flag.String("gen", "", "generate a synthetic table into -data before serving: name:rows:cols[:blockValues[:codec]]")
		genSeed     = flag.Int64("gen-seed", 1, "seed for -gen")
		slots       = flag.Int("slots", 0, "concurrent scan slots (0 = 4×GOMAXPROCS); excess load is refused with 429")
		maxRows     = flag.Int64("max-rows", 0, "server-wide per-query row budget (0 = unlimited)")
		maxBytes    = flag.Int64("max-bytes", 0, "server-wide per-query response byte budget (0 = unlimited)")
		maxDur      = flag.Duration("max-duration", 0, "server-wide per-query time budget (0 = unlimited)")
		maxWorkers  = flag.Int("max-workers", 0, "per-scan parallelism cap (0 = GOMAXPROCS)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "hot-block cache byte budget shared across all tables (0 = off)")
		drainGrace  = flag.Duration("drain-grace", 10*time.Second, "how long in-flight scans get to finish on shutdown")
		logLevelStr = flag.String("log-level", "info", "log level: debug, info, warn, error")

		// Fault-tolerance knobs. -chaos is a testing hook (hidden from the
		// usage examples on purpose): it interposes a deterministic fault
		// injector between every column reader and its file.
		retryAttempts = flag.Int("retry-attempts", 3, "read attempts per block on transient I/O failure (<2 disables retries)")
		retryBase     = flag.Duration("retry-base", time.Millisecond, "backoff before the first block-read retry (doubles per retry)")
		chaos         = flag.String("chaos", "", "fault-injection schedule applied to every column file, e.g. 'transient,count=2;bitflip,off=4096,len=64' (testing only)")
		chaosSeed     = flag.Int64("chaos-seed", 1, "seed for probabilistic -chaos rules")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevelStr)); err != nil {
		fmt.Fprintf(os.Stderr, "zkserved: bad -log-level %q\n", *logLevelStr)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *data == "" {
		fmt.Fprintln(os.Stderr, "zkserved: -data is required")
		os.Exit(2)
	}
	if *gen != "" {
		spec, err := parseGenSpec(*gen, *genSeed)
		if err != nil {
			logger.Error("bad -gen spec", "err", err)
			os.Exit(2)
		}
		logger.Info("generating table", "name", spec.Name, "rows", spec.Rows, "cols", spec.Cols)
		if err := zkserve.GenerateTable(*data, spec); err != nil {
			logger.Error("generate failed", "err", err)
			os.Exit(1)
		}
	}

	regOpts := []zkserve.RegistryOption{zkserve.WithCacheBytes(*cacheBytes)}
	if *retryAttempts > 1 {
		regOpts = append(regOpts, zkserve.WithRetryPolicy(zukowski.RetryPolicy{
			MaxAttempts: *retryAttempts,
			BaseDelay:   *retryBase,
		}))
	}
	if *chaos != "" {
		rules, err := faultio.ParseSchedule(*chaos)
		if err != nil {
			logger.Error("bad -chaos schedule", "err", err)
			os.Exit(2)
		}
		logger.Warn("chaos mode: injecting faults into every column read", "schedule", *chaos, "seed", *chaosSeed)
		seed := *chaosSeed
		regOpts = append(regOpts, zkserve.WithSourceWrapper(func(r io.ReaderAt, size int64) io.ReaderAt {
			seed++ // distinct schedule per column, deterministic per process
			return faultio.NewReaderAt(r, seed, rules...)
		}))
	}

	reg, err := zkserve.OpenDir(*data, regOpts...)
	if err != nil {
		logger.Error("opening data directory", "dir", *data, "err", err)
		os.Exit(1)
	}
	defer reg.Close()
	for _, name := range reg.Tables() {
		t, _ := reg.Table(name)
		m := t.Meta()
		logger.Info("table registered", "table", name, "rows", m.Rows, "columns", len(m.Columns))
	}
	if *cacheBytes > 0 {
		logger.Info("hot-block cache enabled", "budget_bytes", *cacheBytes)
	}

	srv := zkserve.NewServer(zkserve.Config{
		Registry:    reg,
		Slots:       *slots,
		MaxRows:     *maxRows,
		MaxBytes:    *maxBytes,
		MaxDuration: *maxDur,
		MaxWorkers:  *maxWorkers,
		Logger:      logger,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}
	zkserve.Harden(hs)

	done := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		done <- hs.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case got := <-sig:
		logger.Info("draining", "signal", got.String(), "grace", drainGrace.String())
		srv.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Warn("drain grace expired, cutting connections", "err", err)
			hs.Close()
		}
		logger.Info("stopped")
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("server failed", "err", err)
			os.Exit(1)
		}
	}
}

// parseGenSpec parses name:rows:cols[:blockValues[:codec[:segments]]].
// The table is a zktable directory of segments committed segments (one
// when omitted) of rows rows each.
func parseGenSpec(s string, seed int64) (zkserve.TableSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 6 {
		return zkserve.TableSpec{}, fmt.Errorf("want name:rows:cols[:blockValues[:codec[:segments]]], got %q", s)
	}
	spec := zkserve.TableSpec{Name: parts[0], Seed: seed}
	var err error
	if spec.Rows, err = strconv.Atoi(parts[1]); err != nil {
		return spec, fmt.Errorf("rows: %w", err)
	}
	if spec.Cols, err = strconv.Atoi(parts[2]); err != nil {
		return spec, fmt.Errorf("cols: %w", err)
	}
	if len(parts) > 3 {
		if spec.BlockValues, err = strconv.Atoi(parts[3]); err != nil {
			return spec, fmt.Errorf("blockValues: %w", err)
		}
	}
	if len(parts) > 4 {
		spec.Codec = parts[4]
	}
	if len(parts) > 5 {
		if spec.Segments, err = strconv.Atoi(parts[5]); err != nil {
			return spec, fmt.Errorf("segments: %w", err)
		}
	}
	return spec, nil
}

// Finqload is a closed-loop load generator and soak harness for finqd.
//
// It replays a query corpus (testdata/corpus/*.json) against a running
// finqd — or against an in-process one it boots itself when -addr is
// empty — through the typed v1 client, in one of three modes:
//
//	eval    one query per POST /v1/eval request (the baseline wire cost)
//	batch   -batch queries per POST /v1/eval/batch request
//	stream  one streamed enumeration per request (NDJSON or binary frames)
//
// Workers are closed-loop: each fires its next request as soon as the
// previous one finishes, so the measured throughput is the server's
// sustainable rate at that concurrency, not an open-loop arrival fantasy.
// Samples taken during the warmup window are discarded. The summary
// reports per-request p50/p95/p99 and per-query throughput; -out writes
// the same summary as JSON. The loop itself lives in internal/loadgen,
// which the serving rows of the bench table (`make bench`) drive too.
//
// Every synthetic request is minted a W3C trace root, so the servers
// record identity-carrying spans; with -shards N the in-process fleet is
// N finqd instances (round-robin across workers), each with its own
// flight recorder, and -trace-dir dumps each shard's ring as a JSONL
// file on exit — the inputs `finq trace stitch` merges into one
// cross-process Chrome trace.
//
// Examples:
//
//	go run ./cmd/finqload -duration 5s                    # self-hosted
//	go run ./cmd/finqload -addr 127.0.0.1:8080 -mode batch -batch 32
//	go run ./cmd/finqload -mode stream -encoding frames
//	go run ./cmd/finqload -shards 2 -trace-dir /tmp/dumps # stitchable
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"repro/apiv1"
	apiclient "repro/client"
	"repro/internal/loadgen"
	"repro/internal/obs/trace"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "", "finqd host:port to load; empty boots an in-process finqd")
		corpus   = flag.String("corpus", "testdata/corpus/e1.json", "query corpus to replay")
		mode     = flag.String("mode", "eval", "request shape: eval, batch, or stream")
		workers  = flag.Int("workers", 4, "closed-loop worker count")
		duration = flag.Duration("duration", 5*time.Second, "measured window after warmup")
		warmup   = flag.Duration("warmup", time.Second, "warmup window; its samples are discarded")
		batch    = flag.Int("batch", 32, "queries per request in batch mode")
		encoding = flag.String("encoding", "ndjson", "stream encoding: ndjson or frames")
		out      = flag.String("out", "", "write the summary as JSON to this file")
		shards   = flag.Int("shards", 1, "in-process finqd instances to boot and round-robin (needs empty -addr)")
		traceDir = flag.String("trace-dir", "", "arm each in-process shard's flight recorder and dump JSONL traces here on exit")
	)
	flag.Parse()
	if err := run(*addr, *corpus, loadgen.Options{
		Mode:     *mode,
		Workers:  *workers,
		Duration: *duration,
		Warmup:   *warmup,
		Batch:    *batch,
		Encoding: *encoding,
	}, *out, *shards, *traceDir); err != nil {
		fmt.Fprintln(os.Stderr, "finqload:", err)
		os.Exit(1)
	}
}

func run(addr, corpusPath string, opts loadgen.Options, outPath string, shards int, traceDir string) error {
	corpus, err := loadgen.LoadCorpus(corpusPath)
	if err != nil {
		return err
	}
	var addrs []string
	if addr != "" {
		if shards > 1 || traceDir != "" {
			return fmt.Errorf("-shards and -trace-dir need the in-process fleet (leave -addr empty); fetch a remote ring from /debug/trace/export?format=jsonl instead")
		}
		addrs = []string{addr}
	} else {
		if shards < 1 {
			shards = 1
		}
		if traceDir != "" {
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				return err
			}
		}
		for i := 0; i < shards; i++ {
			name := fmt.Sprintf("finqd-%d", i)
			rec := trace.NewRecorder()
			if traceDir != "" {
				rec.Arm(0)
			}
			// The access log would dwarf the summary (and cost throughput) at
			// load-generator request rates; the self-hosted servers are quiet.
			srv := server.New(server.Config{
				Logger:        quietLogger(),
				ServiceName:   name,
				TraceRecorder: rec,
			})
			a, err := srv.Start()
			if err != nil {
				return fmt.Errorf("booting in-process finqd shard %d: %w", i, err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()
			if traceDir != "" {
				defer dumpShardTrace(traceDir, name, rec)
			}
			addrs = append(addrs, a)
			fmt.Printf("finqload: in-process %s on %s\n", name, a)
		}
	}
	if enc, err := streamEncodingFlag(opts.Encoding); err != nil {
		return err
	} else {
		opts.Encoding = enc
	}

	apis := make([]*apiclient.Client, len(addrs))
	for i, a := range addrs {
		apis[i] = apiclient.New("http://"+a, nil)
	}
	res, err := loadgen.Run(context.Background(), apis, corpus, opts)
	if err != nil {
		return err
	}
	fmt.Printf("finqload %s: %d requests, %d queries, %d errors in %.2fs\n",
		res.Mode, res.Requests, res.Queries, res.Errors, res.ElapsedSec)
	fmt.Printf("  %.0f req/s, %.0f queries/s\n", res.RequestsPerSec, res.QueriesPerSec)
	fmt.Printf("  request latency p50 %.3fms p95 %.3fms p99 %.3fms\n", res.P50MS, res.P95MS, res.P99MS)
	if res.Mode == "stream" {
		fmt.Printf("  %d rows streamed\n", res.RowsStreamed)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return nil
}

// dumpShardTrace disarms one shard's flight recorder and writes its ring
// as a JSONL dump (metadata header line first) into dir — the per-process
// input shape `finq trace stitch` merges.
func dumpShardTrace(dir, name string, rec *trace.Recorder) {
	rec.Disarm()
	path := filepath.Join(dir, name+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "finqload: trace dump %s: %v\n", name, err)
		return
	}
	defer f.Close()
	events := rec.Dump()
	meta := trace.Meta{Process: name, EpochUnixNano: rec.Epoch().UnixNano()}
	if err := trace.WriteJSONLMeta(f, meta, events); err != nil {
		fmt.Fprintf(os.Stderr, "finqload: trace dump %s: %v\n", name, err)
		return
	}
	fmt.Printf("finqload: wrote %d trace events (%d dropped) to %s\n",
		len(events), rec.Dropped(), path)
}

// quietLogger drops all log output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}

// streamEncodingFlag maps the -encoding spelling to the wire content type.
func streamEncodingFlag(enc string) (string, error) {
	switch enc {
	case "ndjson", "", apiv1.ContentTypeNDJSON:
		return apiv1.ContentTypeNDJSON, nil
	case "frames", apiv1.ContentTypeFrames:
		return apiv1.ContentTypeFrames, nil
	default:
		return "", fmt.Errorf("unknown -encoding %q (want ndjson or frames)", enc)
	}
}

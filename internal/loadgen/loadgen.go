// Package loadgen is the closed-loop load generator behind cmd/finqload
// and the serving rows of the repository's bench table: it replays a
// query corpus against finqd through the typed v1 client and summarizes
// throughput and latency.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/apiv1"
	apiclient "repro/client"
	"repro/internal/obs/tracectx"
)

// Corpus is a replayable query corpus: one shared state and a list of
// queries, cycled round-robin by the workers. The on-disk shape mirrors
// the v1 wire types so a corpus entry is exactly a /v1/eval body minus
// the domain/state it shares with its neighbors.
type Corpus struct {
	Description string          `json:"description,omitempty"`
	Domain      string          `json:"domain"`
	State       json.RawMessage `json:"state"`
	Queries     []Query         `json:"queries"`
}

// Query is one replayable query.
type Query struct {
	Formula string        `json:"formula"`
	Mode    string        `json:"mode,omitempty"`
	Budget  *apiv1.Budget `json:"budget,omitempty"`
}

// LoadCorpus reads and validates a corpus file.
func LoadCorpus(path string) (*Corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Corpus
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("corpus %s: %w", path, err)
	}
	if c.Domain == "" || len(c.Queries) == 0 {
		return nil, fmt.Errorf("corpus %s: needs a domain and at least one query", path)
	}
	return &c, nil
}

// Options configures one closed-loop run.
type Options struct {
	// Mode is the request shape: "eval", "batch", or "stream".
	Mode string
	// Workers is the closed-loop concurrency.
	Workers int
	// Warmup discards samples taken before it elapses; Duration is the
	// measured window after it.
	Warmup, Duration time.Duration
	// Batch is the queries-per-request in batch mode.
	Batch int
	// Encoding is the stream content type (batch/eval ignore it).
	Encoding string
}

// Result is one run's summary — also the JSON shape finqload -out writes.
type Result struct {
	Mode           string  `json:"mode"`
	Workers        int     `json:"workers"`
	BatchSize      int     `json:"batch_size,omitempty"`
	Requests       int64   `json:"requests"`
	Queries        int64   `json:"queries"`
	Errors         int64   `json:"errors"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	QueriesPerSec  float64 `json:"queries_per_sec"`
	P50MS          float64 `json:"p50_ms"`
	P95MS          float64 `json:"p95_ms"`
	P99MS          float64 `json:"p99_ms"`
	RowsStreamed   int64   `json:"rows_streamed,omitempty"`
}

// Run drives the closed loop: Workers goroutines each fire their next
// request the moment the previous one returns, cycling the corpus via a
// shared counter — and, with several clients, round-robin across the
// shard fleet — until warmup+duration elapses. Only samples completed
// after the warmup window count. Each request carries a freshly minted
// trace root, so the servers' flight recorders attribute every span to a
// distinct distributed trace.
func Run(ctx context.Context, apis []*apiclient.Client, corpus *Corpus, opts Options) (*Result, error) {
	if len(apis) == 0 {
		return nil, fmt.Errorf("loadgen: no clients")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Mode == "batch" && opts.Batch <= 0 {
		opts.Batch = 1
	}
	start := time.Now()
	warmEnd := start.Add(opts.Warmup)
	deadline := start.Add(opts.Warmup + opts.Duration)

	var next atomic.Int64
	type sample struct {
		latency time.Duration
		queries int
		rows    int64
		err     bool
	}
	results := make([][]sample, opts.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []sample
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				api := apis[i%len(apis)]
				// One root per synthetic request: the client injects it as
				// the traceparent header, the server parents under it.
				rctx := tracectx.With(ctx, tracectx.NewRoot())
				s := sample{queries: 1}
				t0 := time.Now()
				switch opts.Mode {
				case "eval":
					q := corpus.Queries[i%len(corpus.Queries)]
					_, err := api.Eval(rctx, apiv1.EvalRequest{
						Domain: corpus.Domain, State: corpus.State,
						Formula: q.Formula, Mode: q.Mode, Budget: q.Budget,
					})
					s.err = err != nil
				case "batch":
					items := make([]apiv1.BatchItem, opts.Batch)
					for j := range items {
						q := corpus.Queries[(i*opts.Batch+j)%len(corpus.Queries)]
						items[j] = apiv1.BatchItem{Formula: q.Formula, Mode: q.Mode, Budget: q.Budget}
					}
					s.queries = opts.Batch
					resp, err := api.EvalBatch(rctx, apiv1.BatchRequest{
						Domain: corpus.Domain, State: corpus.State, Items: items,
					})
					if err != nil {
						s.err = true
					} else {
						for _, it := range resp.Items {
							if it.Error != nil {
								s.err = true
							}
						}
					}
				case "stream":
					q := corpus.Queries[i%len(corpus.Queries)]
					mode := q.Mode
					if mode == "" {
						mode = "enumerate"
					}
					res, err := api.EvalStream(rctx, apiv1.EvalRequest{
						Domain: corpus.Domain, State: corpus.State,
						Formula: q.Formula, Mode: mode, Budget: q.Budget,
					}, opts.Encoding, func(row []string) error {
						s.rows++
						return nil
					})
					if err != nil {
						s.err = true
					} else {
						s.rows = res.Trailer.Rows
					}
				default:
					s.err = true
				}
				s.latency = time.Since(t0)
				if time.Now().After(warmEnd) {
					local = append(local, s)
				}
			}
			results[w] = local
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(warmEnd)

	res := &Result{Mode: opts.Mode, Workers: opts.Workers, ElapsedSec: elapsed.Seconds()}
	if opts.Mode == "batch" {
		res.BatchSize = opts.Batch
	}
	var lats []float64
	for _, local := range results {
		for _, s := range local {
			res.Requests++
			res.Queries += int64(s.queries)
			res.RowsStreamed += s.rows
			if s.err {
				res.Errors++
			}
			lats = append(lats, float64(s.latency)/float64(time.Millisecond))
		}
	}
	if res.Requests == 0 {
		return nil, fmt.Errorf("%s: no requests completed after warmup; lengthen the window", opts.Mode)
	}
	sort.Float64s(lats)
	res.RequestsPerSec = float64(res.Requests) / elapsed.Seconds()
	res.QueriesPerSec = float64(res.Queries) / elapsed.Seconds()
	res.P50MS = percentile(lats, 0.50)
	res.P95MS = percentile(lats, 0.95)
	res.P99MS = percentile(lats, 0.99)
	return res, nil
}

// percentile reads the q-quantile from an ascending-sorted slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

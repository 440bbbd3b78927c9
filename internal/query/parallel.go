package query

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/obs"
)

// EvalActiveParallelCtx is EvalActiveCtx with the outermost free-variable
// assignments fanned out over a worker pool. Results are identical to the
// serial evaluator; the speedup is near-linear for queries whose cost is
// dominated by quantifier nesting (each worker runs the full inner
// evaluation for its slice of the outer variable's range).
//
// Workers ≤ 0 selects GOMAXPROCS.
//
// Workers poll the context (strided) inside their evaluation loops and
// between jobs; a cancellation surfaces through the normal error path, so
// the feeder aborts, every worker exits before the call returns, and the
// context's error is returned. Unlike the serial evaluator no partial
// answer is reported: rows are scattered across workers when the request
// dies.
func EvalActiveParallelCtx(ctx context.Context, dom domain.Domain, st *db.State, f *logic.Formula, workers int) (*Answer, error) {
	vars := f.FreeVars()
	if len(vars) == 0 {
		// Boolean queries have nothing to fan out.
		return EvalActiveCtx(ctx, dom, st, f)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, sp := obs.StartSpanCtx(ctx, "query.eval_active_parallel")
	defer sp.End()
	gParWorkers.SetMax(int64(workers))
	rng, err := activeRange(dom, st, f)
	if err != nil {
		return nil, err
	}
	mParJobs.Add(int64(len(rng)))
	hEvalDomain.Observe(int64(len(rng)))
	sp.Arg("workers", int64(workers))
	sp.Arg("jobs", int64(len(rng)))

	type result struct {
		rows []db.Tuple
		err  error
	}
	// results is buffered to one slot per worker so every worker can deliver
	// its single result and exit even if nothing is receiving anymore. stop
	// aborts the feeder when a worker fails; without it, a failing worker
	// stops draining jobs, the feeder blocks forever on the unbuffered send,
	// and the collection loop deadlocks waiting for results that never come.
	jobs := make(chan domain.Value)
	results := make(chan result, workers)
	stop := make(chan struct{})
	var stopOnce sync.Once
	for w := 0; w < workers; w++ {
		go func() {
			var out []db.Tuple
			a := newAssignment(ctx, dom, st, f, vars, rng, nil, func(t db.Tuple) error {
				out = append(out, t)
				return nil
			})
			for v := range jobs {
				err := a.stop.hit()
				if err == nil {
					// The job binds the outermost variable; the loop binds the rest.
					a.env[vars[0]] = v
					err = a.assign(1)
				}
				if err != nil {
					stopOnce.Do(func() { close(stop) })
					results <- result{err: err}
					return
				}
			}
			results <- result{rows: out}
		}()
	}
	// ctxAborted records that the feeder quit on the context rather than
	// delivering every job: without it, a request cancelled before any
	// worker sees a job would come back as an empty success.
	var ctxAborted atomic.Bool
	go func() {
		defer close(jobs)
		done := ctxDone(ctx)
		for _, v := range rng {
			select {
			case jobs <- v:
			case <-stop:
				return
			case <-done:
				ctxAborted.Store(true)
				return
			}
		}
	}()

	// Collect exactly one result per worker; this both gathers the rows and
	// guarantees no goroutine outlives the call, whichever mix of successes
	// and failures the workers report.
	ans := &Answer{Vars: vars, Rows: db.NewRelation(len(vars)), Complete: true}
	var firstErr error
	for w := 0; w < workers; w++ {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		if firstErr != nil {
			continue
		}
		for _, row := range r.rows {
			if err := ans.Rows.Add(row); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr == nil && ctxAborted.Load() {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	sp.Arg("rows", int64(ans.Rows.Len()))
	return ans, nil
}

// ctxDone returns the context's done channel, or nil (blocking forever in
// a select) for a nil context.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Command qe performs quantifier elimination over the library's decidable
// domains and prints the quantifier-free result — the engine behind every
// decision procedure in the paper (Presburger/Cooper for N< and its
// extensions, Mal'cev for N', the Reach Theory of Traces for T).
//
// Usage:
//
//	qe -domain <name> "<formula>"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	finq "repro"
	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/runcfg"
)

// finish flushes the trace file; fail must call it because os.Exit skips
// deferred calls.
var finish = func() {}

func main() {
	rest, run, fin, err := cliutil.Setup("qe", os.Args[1:])
	if err != nil {
		fail(err)
	}
	finish = fin
	defer finish()
	fs := flag.NewFlagSet("qe", flag.ExitOnError)
	domainName := fs.String("domain", "presburger", "domain name (eq, nless, presburger, nsucc, traces)")
	version := fs.Bool("version", false, "print version and exit")
	stats := fs.Bool("stats", false, "print a metrics summary (QE passes, formula growth) to stderr on exit")
	fs.Parse(rest)
	if *version {
		fmt.Println(finq.Version())
		return
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, `usage: qe [-version] [-stats] [-debug-addr <host:port>] [-trace-out <file>] [-cache[=on|off]] [-log-level <l>] [-log-format text|json] -domain <name> "<formula>"`)
		os.Exit(2)
	}
	if *stats {
		// Take the snapshot inside the closure: a plain
		// `defer obs.Take().WriteSummary(...)` would snapshot now,
		// before any elimination has run.
		defer func() { obs.Take().WriteSummary(os.Stderr) }()
	}
	d, err := finq.Lookup(*domainName)
	if err != nil {
		fail(err)
	}
	f, err := d.Parse(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	ctx := runcfg.With(context.Background(), run)
	g, err := finq.Eliminate(ctx, d, f)
	if err != nil {
		fail(err)
	}
	fmt.Println(g)
	if g.Sentence() && g.QuantifierFree() {
		v, err := finq.Decide(ctx, d, f)
		if err != nil {
			fail(err)
		}
		fmt.Printf("sentence value: %v\n", v)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qe:", err)
	finish()
	os.Exit(1)
}

// Package cliutil holds the global flags shared by every CLI in this
// repository (finq, finqd, tmrun, safety, qe):
//
//	-debug-addr <host:port>  serve /debug/obs, /metrics, /debug/vars,
//	                         /debug/pprof/ for the life of the process
//	-trace-out <file>        arm the execution flight recorder and write a
//	                         Chrome trace (Perfetto / chrome://tracing) on exit
//	-cache[=on|off]          use the memoized decision cache
//	                         (internal/deccache); default on
//	-plan[=on|off]           use the plan-caching query compiler
//	                         (internal/plan); default on
//	-log-level <l>           structured-log threshold: debug|info|warn|error
//	                         (default info)
//	-log-format <f>          structured-log encoding: text|json (default text)
//
// Setup returns -cache and -plan as a run configuration (runcfg.Config):
// each tool evaluates and decides under a context carrying it, and finqd
// hands it to the server (server.Config.Run), which puts it on every
// request's context. Setup also installs the process-wide slog default
// logger (request-ID aware, writing to stderr) from
// -log-level/-log-format, so all five tools emit uniform structured logs
// — `finq eval` and a finqd access log line look the same and can be
// shipped to the same place.
//
// The flags may appear anywhere on the command line, in "-flag value" or
// "-flag=value" form (single or double dash) — except -cache and -plan,
// whose values must be attached with "=" (a bare -cache or -plan means on)
// so that "-cache eval" does not swallow the subcommand — and are stripped
// before the subcommand
// flag sets see the arguments. Hoisting them here keeps the four CLIs' flag
// handling identical without threading the flags through every FlagSet.
package cliutil

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/logctx"
	"repro/internal/obs/trace"
	"repro/internal/runcfg"
)

// Setup extracts the global flags from args, starts the debug server and
// arms the flight recorder as requested, and returns the remaining
// arguments, the run configuration -cache and -plan describe, and a finish
// function. Call finish before exiting (it is idempotent): it disarms the
// recorder and writes the Chrome trace file. A startup failure (unusable
// debug address, unwritable trace path, malformed -cache value) is
// returned as an error so the CLI can exit nonzero before doing work.
func Setup(tool string, args []string) (rest []string, cfg runcfg.Config, finish func(), err error) {
	g := extractGlobals(args)
	rest = g.rest
	debugAddr, traceOut := g.debugAddr, g.traceOut
	if cfg.NoCache, err = parseOff("cache", g.cacheVal); err != nil {
		return nil, cfg, nil, err
	}
	if cfg.NoPlan, err = parseOff("plan", g.planVal); err != nil {
		return nil, cfg, nil, err
	}
	if err := logctx.Setup(os.Stderr, g.logLevel, g.logFormat); err != nil {
		return nil, cfg, nil, err
	}
	if debugAddr != "" {
		addr, err := obs.ServeDebug(debugAddr)
		if err != nil {
			return nil, cfg, nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: debug server on http://%s/debug/obs (Prometheus at /metrics, pprof under /debug/pprof/)\n", tool, addr)
	}
	if traceOut != "" {
		// Fail before the run, not after it, if the path is unwritable.
		probe, err := os.Create(traceOut)
		if err != nil {
			return nil, cfg, nil, err
		}
		probe.Close()
		trace.Arm(0)
	}
	done := false
	finish = func() {
		if done {
			return
		}
		done = true
		if traceOut == "" {
			return
		}
		trace.Disarm()
		events := trace.Dump()
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: trace: %v\n", tool, err)
			return
		}
		defer f.Close()
		if err := trace.WriteChrome(f, events); err != nil {
			fmt.Fprintf(os.Stderr, "%s: trace: %v\n", tool, err)
			return
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d trace events (%d dropped) to %s — load in Perfetto or chrome://tracing\n",
			tool, len(events), trace.Dropped(), traceOut)
	}
	return rest, cfg, finish, nil
}

// globals is the extracted set of shared flags.
type globals struct {
	rest      []string
	debugAddr string
	traceOut  string
	cacheVal  string
	planVal   string
	logLevel  string
	logFormat string
}

// extractGlobals strips -debug-addr, -trace-out, -log-level, -log-format
// (all four spellings each), -cache, and -plan from the argument list.
// cacheVal/planVal are "" when the flag is absent or bare, and the literal
// value for the = spelling; unlike the other globals a bare -cache or
// -plan never consumes the next argument, which is usually the
// subcommand.
func extractGlobals(args []string) globals {
	var g globals
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, val, hasVal := splitFlag(a)
		switch name {
		case "debug-addr", "trace-out", "log-level", "log-format":
			if !hasVal {
				if i+1 < len(args) {
					val = args[i+1]
					i++
				}
			}
			switch name {
			case "debug-addr":
				g.debugAddr = val
			case "trace-out":
				g.traceOut = val
			case "log-level":
				g.logLevel = val
			case "log-format":
				g.logFormat = val
			}
		case "cache":
			g.cacheVal = val
		case "plan":
			g.planVal = val
		default:
			g.rest = append(g.rest, a)
		}
	}
	return g
}

// parseOff reports whether a -cache or -plan value turns its optimization
// off; an absent flag ("") leaves it on.
func parseOff(flag, v string) (bool, error) {
	switch strings.ToLower(v) {
	case "", "on", "true", "1":
		return false, nil
	case "off", "false", "0":
		return true, nil
	}
	return false, fmt.Errorf("-%s: want on|off, got %q", flag, v)
}

// splitFlag parses "-name", "--name", "-name=value" into its parts; a
// non-flag argument returns name "".
func splitFlag(a string) (name, value string, hasValue bool) {
	if !strings.HasPrefix(a, "-") {
		return "", "", false
	}
	a = strings.TrimPrefix(strings.TrimPrefix(a, "-"), "-")
	if i := strings.IndexByte(a, '='); i >= 0 {
		return a[:i], a[i+1:], true
	}
	return a, "", false
}

// Command safety exercises the paper's safety machinery: relative safety
// of a query in a state (decidable for the positive domains, budgeted for
// the trace domain), the Theorem 3.3 halting reduction, and Theorem 3.1
// totality verification.
//
// Usage:
//
//	safety relative -domain <name> -state file.json "<formula>"
//	safety halting  -machine "<word>" -input <w>
//	safety totality -machine "<word>" -candidate "<formula>"
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

func main() {
	args, run, finish, err := cliutil.Setup("safety", os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "safety:", err)
		os.Exit(1)
	}
	defer finish()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "version", "-version", "--version":
		fmt.Println(finq.Version())
		return
	case "relative":
		err = runRelative(args[1:])
	case "halting":
		err = runHalting(args[1:])
	case "totality":
		err = runTotality(runcfg.With(context.Background(), run), args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "safety:", err)
		finish()
		os.Exit(1)
	}
	// Exit report: verdict counts, simulation steps, QE volume.
	obs.Take().WriteSummary(os.Stderr)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  safety relative -domain <name> [-state file.json] "<formula>"
  safety halting  -machine "<word>" -input <w>
  safety totality -machine "<word>" -candidate "<formula>"
  safety version

global flags:
  -debug-addr <host:port>  serve /debug/obs, /metrics, /debug/vars, /debug/pprof/
  -trace-out <file>        record execution and write a Chrome trace on exit
  -log-level <level>       debug|info|warn|error for structured logs (default info)
  -log-format <fmt>        text|json log output (default text)
  -cache[=on|off]          memoize decision-procedure calls (default on)

a metrics summary (verdicts, simulation steps) is printed to stderr on exit`)
}

func runRelative(args []string) error {
	fs := flag.NewFlagSet("relative", flag.ContinueOnError)
	domainName := fs.String("domain", "eq", "domain name")
	statePath := fs.String("state", "", "state JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected one formula argument")
	}
	d, err := finq.Lookup(*domainName)
	if err != nil {
		return err
	}
	f, err := d.Parse(fs.Arg(0))
	if err != nil {
		return err
	}
	st := finq.NewState(finq.MustScheme(map[string]int{}))
	if *statePath != "" {
		data, err := os.ReadFile(*statePath)
		if err != nil {
			return err
		}
		st, err = finq.ParseState(d, data)
		if err != nil {
			return err
		}
	}
	v, err := finq.RelativeSafety(d, st, f)
	if err != nil {
		return err
	}
	switch v {
	case finq.Holds:
		fmt.Println("finite in this state")
	case finq.Fails:
		fmt.Println("infinite in this state")
	default:
		fmt.Println("unknown (budget exhausted or query shape unrecognized — Theorem 3.3 rules out a decider)")
	}
	return nil
}

func runHalting(args []string) error {
	fs := flag.NewFlagSet("halting", flag.ContinueOnError)
	machine := fs.String("machine", "", "encoded machine word")
	input := fs.String("input", "", "input word over {1,&}")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, st, err := finq.HaltingToRelativeSafety(*machine, *input)
	if err != nil {
		return err
	}
	fmt.Printf("reduction query: %v\n", f)
	d := finq.MustLookup("traces")
	v, err := finq.RelativeSafety(d, st, f)
	if err != nil {
		return err
	}
	switch v {
	case finq.Holds:
		fmt.Println("query finite ⟺ machine halts on the input: HALTS")
	case finq.Fails:
		fmt.Println("query infinite ⟺ machine diverges on the input: DIVERGES (certified loop)")
	default:
		fmt.Println("unknown within budget — exactly the Theorem 3.3 obstruction")
	}
	return nil
}

func runTotality(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("totality", flag.ContinueOnError)
	machine := fs.String("machine", "", "encoded machine word")
	candidate := fs.String("candidate", "", "candidate formula over the trace domain (uses constant c)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d := finq.MustLookup("traces")
	// "c" is the Theorem 3.1 database constant.
	cand, err := d.ParseWithConstants(*candidate, "c")
	if err != nil {
		return err
	}
	ok, err := finq.VerifyTotality(ctx, *machine, cand)
	if err != nil {
		return err
	}
	if ok {
		fmt.Println("equivalence sentence TRUE: candidate denotes P(M,c,x) in every state;")
		fmt.Println("if the candidate is finite, the machine is certified total (Theorem 3.1)")
	} else {
		fmt.Println("equivalence sentence FALSE: candidate does not denote this machine's totality query")
	}
	return nil
}

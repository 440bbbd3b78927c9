package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	finq "repro"
	"repro/internal/algebra"
	"repro/internal/obs/qstats"
	"repro/internal/obs/trace"
)

// runAlgebra compiles a safe-range query to a relational algebra plan,
// prints it, and evaluates it against the state.
func runAlgebra(args []string) error {
	fs := flag.NewFlagSet("algebra", flag.ContinueOnError)
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
	st, err := loadState(d, *statePath)
	if err != nil {
		return err
	}
	plan, err := algebra.Compile(st.Scheme(), f)
	if err != nil {
		return err
	}
	fmt.Println("plan:", plan.String())
	table, err := plan.Eval(&algebra.Ctx{St: st, Dom: d.Domain})
	if err != nil {
		return err
	}
	fmt.Println("result:", table.String())
	return nil
}

// runREPL is an interactive session: one domain, one state, commands for
// evaluation, safety, and quantifier elimination.
func runREPL(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("repl", flag.ContinueOnError)
	domainName := fs.String("domain", "eq", "domain name")
	statePath := fs.String("state", "", "state JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := finq.Lookup(*domainName)
	if err != nil {
		return err
	}
	st, err := loadState(d, *statePath)
	if err != nil {
		return err
	}
	fmt.Printf("finq repl — domain %s (%s)\n", d.Name, d.Doc)
	fmt.Println("commands: eval <f> | enum <f> | safety <f> | qe <f> | decide <f> | saferange <f> | state | :explain <f> | :trace on|off|dump | :stats [json] | :qstats [json] | help | quit")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest := line, ""
		if i := strings.IndexByte(line, ' '); i >= 0 {
			cmd, rest = line[:i], strings.TrimSpace(line[i+1:])
		}
		if err := replCommand(ctx, d, st, cmd, rest); err != nil {
			if err == errQuit {
				return nil
			}
			fmt.Println("error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

func replCommand(ctx context.Context, d finq.DomainInfo, st *finq.State, cmd, rest string) error {
	parse := func() (*finq.Formula, error) {
		if rest == "" {
			return nil, fmt.Errorf("%s needs a formula", cmd)
		}
		return d.Parse(rest)
	}
	switch cmd {
	case "quit", "exit", "q":
		return errQuit
	case "help":
		fmt.Println("eval <f>      active-domain evaluation")
		fmt.Println("enum <f>      §1.1 enumeration (complete on finite queries)")
		fmt.Println("safety <f>    relative safety in the current state")
		fmt.Println("qe <f>        quantifier elimination")
		fmt.Println("decide <f>    truth of a pure sentence")
		fmt.Println("saferange <f> syntactic range-restriction analysis")
		fmt.Println("state         print the current state")
		fmt.Println(":explain <f>  EXPLAIN profile: per-node eval counts, row counts, wall time")
		fmt.Println(":trace on|off|dump [file]  arm/disarm the flight recorder; dump writes a Chrome trace (default trace.json)")
		fmt.Println(":stats [json] session metrics (evaluation, QE, automata, TM, safety)")
		fmt.Println(":qstats [json] per-query stats of this session (latency, selectivity, cache hits)")
		return nil
	case "state":
		fmt.Print(st)
		return nil
	case ":stats", "stats":
		snap := finq.Stats()
		if rest == "json" {
			fmt.Printf("%s\n", snap.JSON())
			return nil
		}
		snap.WriteSummary(os.Stdout)
		return nil
	case ":qstats", "qstats":
		// Every eval/enum/:explain in the session has been folded into the
		// process-wide registry; show the session's queries by total latency.
		if rest == "json" {
			fmt.Printf("%s\n", qstats.Default().JSON())
			return nil
		}
		entries, err := qstats.Default().TopK(qstats.ByLatency, 0)
		if err != nil {
			return err
		}
		qstats.WriteTable(os.Stdout, entries)
		return nil
	case ":trace", "trace":
		return replTrace(rest)
	case ":explain", "explain":
		f, err := parse()
		if err != nil {
			return err
		}
		res, err := finq.Eval(ctx, finq.Request{
			Domain: d.Name, State: st, Formula: f, Profile: true,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.Profile.Text())
		printAnswer(res.Answer)
		return nil
	case "eval":
		f, err := parse()
		if err != nil {
			return err
		}
		res, err := finq.Eval(ctx, finq.Request{
			Domain: d.Name, State: st, Formula: f,
		})
		if err != nil {
			return err
		}
		printAnswer(res.Answer)
		return nil
	case "enum":
		f, err := parse()
		if err != nil {
			return err
		}
		budget := finq.DefaultBudget
		res, err := finq.Eval(ctx, finq.Request{
			Domain: d.Name, State: st, Formula: f, Mode: finq.ModeEnumerate, Budget: &budget,
		})
		if err != nil {
			return err
		}
		printAnswer(res.Answer)
		return nil
	case "safety":
		f, err := parse()
		if err != nil {
			return err
		}
		v, err := finq.RelativeSafety(d, st, f)
		if err != nil {
			return err
		}
		fmt.Println(v)
		return nil
	case "qe":
		f, err := parse()
		if err != nil {
			return err
		}
		g, err := finq.Eliminate(ctx, d, f)
		if err != nil {
			return err
		}
		fmt.Println(g)
		return nil
	case "decide":
		f, err := parse()
		if err != nil {
			return err
		}
		v, err := finq.Decide(ctx, d, f)
		if err != nil {
			return err
		}
		fmt.Println(v)
		return nil
	case "saferange":
		f, err := parse()
		if err != nil {
			return err
		}
		r := finq.SafeRange(st.Scheme(), f)
		if r.Safe {
			fmt.Println("safe-range")
		} else {
			fmt.Println("not safe-range; unranged:", r.Unranged)
		}
		return nil
	}
	return fmt.Errorf("unknown command %q (try help)", cmd)
}

// replTrace implements :trace — arming, disarming, and dumping the flight
// recorder from inside a session.
func replTrace(rest string) error {
	cmd, arg := rest, ""
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		cmd, arg = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	switch cmd {
	case "on":
		trace.Arm(0)
		fmt.Println("tracing armed (ring capacity", trace.DefaultCapacity, "events)")
		return nil
	case "off":
		trace.Disarm()
		fmt.Printf("tracing disarmed; %d events held (%d dropped) — :trace dump to export\n",
			trace.Len(), trace.Dropped())
		return nil
	case "dump":
		if arg == "" {
			arg = "trace.json"
		}
		f, err := os.Create(arg)
		if err != nil {
			return err
		}
		defer f.Close()
		events := trace.Dump()
		if err := trace.WriteChrome(f, events); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace events to %s — load in Perfetto or chrome://tracing\n", len(events), arg)
		return nil
	case "":
		state := "disarmed"
		if trace.Armed() {
			state = "armed"
		}
		fmt.Printf("tracing %s; %d events held, %d dropped\n", state, trace.Len(), trace.Dropped())
		return nil
	}
	return fmt.Errorf(":trace takes on, off, or dump [file]")
}

func printAnswer(ans *finq.Answer) {
	for _, row := range ans.Rows.Tuples() {
		fmt.Println(" ", row)
	}
	fmt.Printf("%d rows, complete=%v\n", ans.Rows.Len(), ans.Complete)
}

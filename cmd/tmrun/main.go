// Command tmrun works with the paper's Turing machines: running them,
// printing traces (the elements of the domain T), and encoding/decoding the
// machine words of Section 3.
//
// Usage:
//
//	tmrun builtins
//	tmrun encode  -builtin <name>
//	tmrun decode  "<machine word>"
//	tmrun run     [-builtin <name> | -machine "<word>"] -input <w> [-steps n]
//	tmrun traces  [-builtin <name> | -machine "<word>"] -input <w> [-max n]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	finq "repro"
	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/turing"
)

var builtins = map[string]func() *turing.Machine{
	"halt":       turing.HaltImmediately,
	"loop":       turing.LoopForever,
	"erase":      turing.EraseAndHalt,
	"successor":  turing.Successor,
	"halt-iff-1": turing.HaltIffStartsWithOne,
	"busy2":      func() *turing.Machine { return turing.BusyWork(2) },
	"busy5":      func() *turing.Machine { return turing.BusyWork(5) },
}

func main() {
	args, _, finish, err := cliutil.Setup("tmrun", os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmrun:", err)
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
	case "builtins":
		var names []string
		for n := range builtins {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := builtins[n]()
			fmt.Printf("%-12s %2d rules  %s\n", n, m.NumRules(), turing.Encode(m))
		}
	case "encode":
		err = runEncode(args[1:])
	case "decode":
		err = runDecode(args[1:])
	case "run":
		err = runRun(args[1:])
	case "traces":
		err = runTraces(args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmrun:", err)
		finish()
		os.Exit(1)
	}
	// Exit report: what the run cost (steps, tape growth, traces built).
	obs.Take().WriteSummary(os.Stderr)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tmrun builtins
  tmrun encode -builtin <name>
  tmrun decode "<machine word>"
  tmrun run    [-builtin <name> | -machine "<word>"] -input <w> [-steps n]
  tmrun traces [-builtin <name> | -machine "<word>"] -input <w> [-max n]
  tmrun version

global flags:
  -debug-addr <host:port>  serve /debug/obs, /metrics, /debug/vars, /debug/pprof/
  -trace-out <file>        record execution and write a Chrome trace on exit
  -log-level <level>       debug|info|warn|error for structured logs (default info)
  -log-format <fmt>        text|json log output (default text)
  -cache[=on|off]          memoize decision-procedure calls (default on)

a metrics summary (steps, tape growth) is printed to stderr on exit`)
}

func pickMachine(builtin, word string) (*turing.Machine, string, error) {
	switch {
	case builtin != "" && word != "":
		return nil, "", fmt.Errorf("give either -builtin or -machine, not both")
	case builtin != "":
		mk, ok := builtins[builtin]
		if !ok {
			return nil, "", fmt.Errorf("unknown builtin %q (see `tmrun builtins`)", builtin)
		}
		m := mk()
		return m, turing.Encode(m), nil
	case word != "":
		m, err := turing.Decode(word)
		if err != nil {
			return nil, "", err
		}
		return m, word, nil
	}
	return nil, "", fmt.Errorf("a machine is required (-builtin or -machine)")
}

func runEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ContinueOnError)
	builtin := fs.String("builtin", "", "builtin machine name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, enc, err := pickMachine(*builtin, "")
	if err != nil {
		return err
	}
	fmt.Println(enc)
	fmt.Println(m)
	return nil
}

func runDecode(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("expected one machine word")
	}
	m, err := turing.Decode(args[0])
	if err != nil {
		return err
	}
	fmt.Println(m)
	return nil
}

func runRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	builtin := fs.String("builtin", "", "builtin machine name")
	word := fs.String("machine", "", "encoded machine word")
	input := fs.String("input", "", "input word over {1,&}")
	steps := fs.Int("steps", 10000, "step budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, _, err := pickMachine(*builtin, *word)
	if err != nil {
		return err
	}
	if !turing.ValidInput(*input) {
		return fmt.Errorf("input %q is not over {1,&}", *input)
	}
	r := turing.Run(m, *input, *steps)
	if r.Halted {
		fmt.Printf("halted after %d steps; result %q\n", r.Steps, r.Output)
	} else {
		fmt.Printf("still running after %d steps\n", r.Steps)
	}
	return nil
}

func runTraces(args []string) error {
	fs := flag.NewFlagSet("traces", flag.ContinueOnError)
	builtin := fs.String("builtin", "", "builtin machine name")
	word := fs.String("machine", "", "encoded machine word")
	input := fs.String("input", "", "input word over {1,&}")
	max := fs.Int("max", 5, "maximum number of steps to trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, enc, err := pickMachine(*builtin, *word)
	if err != nil {
		return err
	}
	if !turing.ValidInput(*input) {
		return fmt.Errorf("input %q is not over {1,&}", *input)
	}
	all := turing.Traces(m, enc, *input, *max)
	n, halted := turing.StepsToHalt(m, *input, *max)
	for i, tr := range all {
		fmt.Printf("trace %d (%d steps): %s\n", i, i, tr)
	}
	if halted {
		fmt.Printf("machine halts after %d steps: exactly %d traces — E_%d holds\n", n, n+1, n+1)
	} else {
		fmt.Printf("machine still running after %d steps: trace family continues (D_i for all probed i)\n", *max)
	}
	return nil
}

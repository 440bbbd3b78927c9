package cliutil

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	finq "repro"
	"repro/internal/obs/qstats"
	"repro/internal/runcfg"
)

func TestExtractGlobalsCacheFlag(t *testing.T) {
	cases := []struct {
		args     []string
		rest     []string
		cacheVal string
	}{
		// Bare -cache must not swallow the subcommand that follows it.
		{[]string{"-cache", "eval", "q.fq"}, []string{"eval", "q.fq"}, ""},
		{[]string{"--cache=off", "eval"}, []string{"eval"}, "off"},
		{[]string{"eval", "-cache=1"}, []string{"eval"}, "1"},
		{[]string{"eval"}, []string{"eval"}, ""},
		// Interleaved with a value-consuming global.
		{[]string{"-cache=off", "-trace-out", "t.json", "eval"}, []string{"eval"}, "off"},
	}
	for _, c := range cases {
		g := extractGlobals(c.args)
		if !reflect.DeepEqual(g.rest, c.rest) || g.cacheVal != c.cacheVal {
			t.Errorf("extractGlobals(%v) = rest %v cache %q, want %v %q",
				c.args, g.rest, g.cacheVal, c.rest, c.cacheVal)
		}
	}
}

// TestExtractGlobalsLogFlags covers the two logging globals in both
// "-flag value" and "-flag=value" spellings, interleaved with subcommand
// arguments.
func TestExtractGlobalsLogFlags(t *testing.T) {
	g := extractGlobals([]string{"-log-level", "debug", "eval", "--log-format=json", "q"})
	if g.logLevel != "debug" || g.logFormat != "json" {
		t.Errorf("log flags = %q %q, want debug json", g.logLevel, g.logFormat)
	}
	if !reflect.DeepEqual(g.rest, []string{"eval", "q"}) {
		t.Errorf("rest = %v, want [eval q]", g.rest)
	}
}

// TestSetupRejectsBadLogFlags: malformed logging values fail Setup before
// any work runs, like a malformed -cache.
func TestSetupRejectsBadLogFlags(t *testing.T) {
	if _, _, _, err := Setup("test", []string{"-log-level=loud"}); err == nil {
		t.Error("Setup accepted a malformed -log-level value")
	}
	if _, _, _, err := Setup("test", []string{"-log-format=yaml"}); err == nil {
		t.Error("Setup accepted a malformed -log-format value")
	}
}

// checkFlagValues: -cache and -plan accept the same values, and an
// error names the flag it came from.
func checkFlagValues(t *testing.T, flag string) {
	t.Helper()
	for _, v := range []string{"", "on", "true", "1", "ON", "True"} {
		if off, err := parseOff(flag, v); err != nil || off {
			t.Errorf("parseOff(%q, %q) = %v, %v; want false", flag, v, off, err)
		}
	}
	for _, v := range []string{"off", "false", "0", "OFF"} {
		if off, err := parseOff(flag, v); err != nil || !off {
			t.Errorf("parseOff(%q, %q) = %v, %v; want true", flag, v, off, err)
		}
	}
	if _, err := parseOff(flag, "maybe"); err == nil || !strings.HasPrefix(err.Error(), "-"+flag+":") {
		t.Errorf("parseOff(%q, garbage) = %v, want an error naming -%s", flag, err, flag)
	}
}

func TestParseCacheValue(t *testing.T) { checkFlagValues(t, "cache") }

func TestParsePlanValue(t *testing.T) { checkFlagValues(t, "plan") }

func mustParse(t *testing.T, d finq.DomainInfo, src string) *finq.Formula {
	t.Helper()
	f, err := d.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// traffic reads the plan-cache and decision-cache traffic the qstats row
// of f has recorded so far.
func traffic(f *finq.Formula) (plans, decisions int64) {
	for _, e := range qstats.Default().Take().Entries {
		if e.Key == f.CanonicalKey() {
			return e.PlanHits + e.PlanMisses, e.CacheHits + e.CacheMisses
		}
	}
	return 0, 0
}

// setupRun runs Setup on args and returns the context the tools evaluate
// and decide under.
func setupRun(t *testing.T, args []string) context.Context {
	t.Helper()
	rest, run, finish, err := Setup("test", args)
	if err != nil {
		t.Fatalf("Setup(%v): %v", args, err)
	}
	finish()
	if len(rest) != 0 {
		t.Errorf("Setup(%v) left args %v", args, rest)
	}
	return runcfg.With(context.Background(), run)
}

// TestSetupWiresCacheToggle: -cache=off sets NoCache, which takes the
// decision cache out of `finq decide` and of the decisions finq.Eval
// makes; bare and absent leave it in.
func TestSetupWiresCacheToggle(t *testing.T) {
	d := finq.MustLookup("presburger")
	st, err := finq.ParseState(d, []byte(`{"relations": {"R": [["3"]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		args []string
		off  bool
	}{
		{[]string{"-cache=off"}, true},
		{[]string{"-cache"}, false},
		{nil, false},
	} {
		ctx := setupRun(t, c.args)
		if cfg, _ := runcfg.From(ctx); cfg != (runcfg.Config{NoCache: c.off}) {
			t.Errorf("Setup(%v) = %+v", c.args, cfg)
		}
		// finq decide: one decision under the context.
		sentence := mustParse(t, d, fmt.Sprintf("exists y. lt(%d, y)", 100+i))
		dctx, n := runcfg.WithCounts(ctx)
		if v, err := d.Decider.Decide(dctx, sentence); err != nil || !v {
			t.Fatalf("decide: %v, %v", v, err)
		}
		if cached := n.CacheMisses.Load() == 1; cached == c.off {
			t.Errorf("Setup(%v): decide through the cache = %v", c.args, cached)
		}
		// finq eval: a sentence over a state, decided by the §1.1 loop.
		f := mustParse(t, d, fmt.Sprintf("exists y. (R(y) & lt(y, %d))", 200+i))
		if _, err := finq.Eval(ctx, finq.Request{Domain: d.Name, State: st, Formula: f, Mode: finq.ModeEnumerate}); err != nil {
			t.Fatal(err)
		}
		if _, decisions := traffic(f); (decisions == 1) == c.off {
			t.Errorf("Setup(%v): eval decided through the cache %d times", c.args, decisions)
		}
	}
	if _, _, _, err := Setup("test", []string{"-cache=sideways"}); err == nil {
		t.Error("Setup accepted a malformed -cache value")
	}
}

// TestSetupWiresPlanToggle: -plan=off sets NoPlan, which keeps finq.Eval
// off the planner in both modes; bare and absent leave it on.
func TestSetupWiresPlanToggle(t *testing.T) {
	d := finq.MustLookup("presburger")
	st, err := finq.ParseState(d, []byte(`{"relations": {"R": [["3"], ["5"]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		args []string
		off  bool
	}{
		{[]string{"--plan=off"}, true},
		{[]string{"-plan=1"}, false},
		{[]string{"-plan"}, false},
		{nil, false},
	} {
		ctx := setupRun(t, c.args)
		if cfg, _ := runcfg.From(ctx); cfg != (runcfg.Config{NoPlan: c.off}) {
			t.Errorf("Setup(%v) = %+v", c.args, cfg)
		}
		for _, mode := range []finq.EvalMode{finq.ModeActive, finq.ModeEnumerate} {
			f := mustParse(t, d, fmt.Sprintf("R(x) & lt(x, %d)", 10*i+len(mode)))
			res, err := finq.Eval(ctx, finq.Request{Domain: d.Name, State: st, Formula: f, Mode: mode})
			if err != nil || res.Answer.Rows.Len() != 2 {
				t.Fatalf("Setup(%v), %s: %v, %v", c.args, mode, res, err)
			}
			if plans, _ := traffic(f); (plans == 0) != c.off {
				t.Errorf("Setup(%v), %s: %d plan lookups", c.args, mode, plans)
			}
		}
	}
	if _, _, _, err := Setup("test", []string{"-plan=sideways"}); err == nil {
		t.Error("Setup accepted a malformed -plan value")
	}
}

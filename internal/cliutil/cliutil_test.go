package cliutil

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/deccache"
	"repro/internal/plan"
)

func TestExtractGlobalsCacheFlag(t *testing.T) {
	cases := []struct {
		args     []string
		rest     []string
		cacheVal string
	}{
		// Bare -cache must not swallow the subcommand that follows it.
		{[]string{"-cache", "eval", "q.fq"}, []string{"eval", "q.fq"}, "on"},
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
	if _, _, err := Setup("test", []string{"-log-level=loud"}); err == nil {
		t.Error("Setup accepted a malformed -log-level value")
	}
	if _, _, err := Setup("test", []string{"-log-format=yaml"}); err == nil {
		t.Error("Setup accepted a malformed -log-format value")
	}
}

// checkToggleValues: every toggle flag accepts the same values, and an
// error names the flag it came from.
func checkToggleValues(t *testing.T, flag string) {
	t.Helper()
	for _, v := range []string{"on", "true", "1", "ON", "True"} {
		if got, err := parseToggle(flag, v); err != nil || !got {
			t.Errorf("parseToggle(%q, %q) = %v, %v; want true", flag, v, got, err)
		}
	}
	for _, v := range []string{"off", "false", "0", "OFF"} {
		if got, err := parseToggle(flag, v); err != nil || got {
			t.Errorf("parseToggle(%q, %q) = %v, %v; want false", flag, v, got, err)
		}
	}
	if _, err := parseToggle(flag, "maybe"); err == nil || !strings.HasPrefix(err.Error(), "-"+flag+":") {
		t.Errorf("parseToggle(%q, garbage) = %v, want an error naming -%s", flag, err, flag)
	}
}

func TestParseCacheValue(t *testing.T) { checkToggleValues(t, "cache") }

func TestParsePlanValue(t *testing.T) { checkToggleValues(t, "plan") }

// TestSetupWiresCacheToggle: -cache follows the -plan pattern — bare
// means on, =off disables the cache, the default leaves it untouched.
func TestSetupWiresCacheToggle(t *testing.T) {
	prev := deccache.Enabled()
	defer deccache.SetEnabled(prev)

	cases := []struct {
		args []string
		want bool
	}{
		{[]string{"-cache=off"}, false},
		{[]string{"-cache"}, true},
	}
	for _, c := range cases {
		rest, finish, err := Setup("test", c.args)
		if err != nil {
			t.Fatalf("Setup(%v): %v", c.args, err)
		}
		finish()
		if len(rest) != 0 {
			t.Errorf("Setup(%v) left args %v", c.args, rest)
		}
		if deccache.Enabled() != c.want {
			t.Errorf("Setup(%v): cache enabled = %v, want %v", c.args, deccache.Enabled(), c.want)
		}
	}

	// Absent flag: the process toggle is untouched.
	deccache.SetEnabled(false)
	if _, finish, err := Setup("test", nil); err != nil {
		t.Fatal(err)
	} else {
		finish()
	}
	if deccache.Enabled() {
		t.Error("Setup with no -cache flag changed the cache toggle")
	}

	if _, _, err := Setup("test", []string{"-cache=sideways"}); err == nil {
		t.Error("Setup accepted a malformed -cache value")
	}
}

// TestSetupWiresPlanToggle: -plan follows the -cache pattern — bare means
// on, =off disables the planner, the default leaves it untouched.
func TestSetupWiresPlanToggle(t *testing.T) {
	prev := plan.Enabled()
	defer plan.SetEnabled(prev)

	cases := []struct {
		args []string
		rest []string
		want bool
	}{
		// Bare -plan must not swallow the subcommand that follows it.
		{[]string{"-plan", "eval"}, []string{"eval"}, true},
		{[]string{"--plan=off", "eval"}, []string{"eval"}, false},
		{[]string{"-plan=1"}, nil, true},
	}
	for _, c := range cases {
		rest, finish, err := Setup("test", c.args)
		if err != nil {
			t.Fatalf("Setup(%v): %v", c.args, err)
		}
		finish()
		if !reflect.DeepEqual(rest, c.rest) {
			t.Errorf("Setup(%v) left args %v, want %v", c.args, rest, c.rest)
		}
		if plan.Enabled() != c.want {
			t.Errorf("Setup(%v): planner enabled = %v, want %v", c.args, plan.Enabled(), c.want)
		}
	}

	// Absent flag: the process toggle is untouched.
	plan.SetEnabled(false)
	if _, finish, err := Setup("test", nil); err != nil {
		t.Fatal(err)
	} else {
		finish()
	}
	if plan.Enabled() {
		t.Error("Setup with no -plan flag changed the planner toggle")
	}
	plan.SetEnabled(prev)

	if _, _, err := Setup("test", []string{"-plan=sideways"}); err == nil {
		t.Error("Setup accepted a malformed -plan value")
	}
}

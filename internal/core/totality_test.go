package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/runcfg"
	"repro/internal/traces"
	"repro/internal/turing"
)

// characterization returns the Reach-signature formula
// T(x) ∧ m(x) = M ∧ w(x) = c — semantically identical to P(M, c, x) but
// syntactically different, the kind of candidate a genuine syntax for
// finite queries would contain for a total machine M.
func characterization(machineWord string) *logic.Formula {
	x := logic.Var("x")
	return logic.And(
		logic.Atom(traces.PredT, x),
		logic.Eq(logic.App(traces.FuncM, x), logic.Const(machineWord)),
		logic.Eq(logic.App(traces.FuncW, x), logic.Const(DBConst)))
}

func TestEquivalenceSentenceShape(t *testing.T) {
	busy := turing.Encode(turing.BusyWork(1))
	s := EquivalenceSentence(TotalityQuery(busy), characterization(busy))
	if !s.Sentence() {
		t.Fatalf("equivalence sentence has free variables: %v", s.FreeVars())
	}
	if len(s.Constants()) == 0 {
		t.Fatalf("machine constant missing")
	}
	for _, c := range s.Constants() {
		if c == DBConst {
			t.Fatalf("database constant not substituted away")
		}
	}
}

// TestTheorem31Verification is the positive half of the construction: "if
// it happens to be true, we know that M_k is a total machine". The
// equivalence of P(M, z, x) with the syntactically different
// characterization formula is decided by the trace-theory decision
// procedure.
func TestTheorem31Verification(t *testing.T) {
	busy := turing.Encode(turing.BusyWork(1))
	halt := turing.Encode(turing.HaltImmediately())
	ok, err := VerifyTotality(context.Background(), busy, characterization(busy))
	if err != nil {
		t.Fatalf("VerifyTotality: %v", err)
	}
	if !ok {
		t.Errorf("equivalent candidate should certify the machine")
	}
	// A candidate characterizing a different machine is not equivalent.
	ok, err = VerifyTotality(context.Background(), busy, characterization(halt))
	if err != nil {
		t.Fatalf("VerifyTotality: %v", err)
	}
	if ok {
		t.Errorf("candidate for a different machine must not certify")
	}
	if _, err := VerifyTotality(context.Background(), "junk", characterization(busy)); err == nil {
		t.Errorf("bad machine word accepted")
	}
}

// TestVerifyTotalityContext: the decision runs under the caller's context.
// A done context stops it before any work, a repeated sentence is a hit of
// the one decision cache, and NoCache decides it afresh without counting.
func TestVerifyTotalityContext(t *testing.T) {
	busy := turing.Encode(turing.BusyWork(1))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := VerifyTotality(cancelled, busy, characterization(busy)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err %v, want %v", err, context.Canceled)
	}
	for _, cfg := range []runcfg.Config{{}, {NoCache: true}} {
		ctx := runcfg.With(context.Background(), cfg)
		if _, err := VerifyTotality(ctx, busy, characterization(busy)); err != nil {
			t.Fatal(err)
		}
		ctx, n := runcfg.WithCounts(ctx)
		if ok, err := VerifyTotality(ctx, busy, characterization(busy)); err != nil || !ok {
			t.Fatalf("%+v: repeated verification: %v %v", cfg, ok, err)
		}
		want := int64(1)
		if cfg.NoCache {
			want = 0
		}
		if hits, misses := n.CacheHits.Load(), n.CacheMisses.Load(); hits != want || misses != 0 {
			t.Errorf("%+v: repeated verification counted %d hits and %d misses, want %d and 0", cfg, hits, misses, want)
		}
	}
}

// TestTheorem31SyntaxMissesFiniteQuery is the negative half: the
// active-domain syntax — a genuine recursive class of finite formulas over
// the scheme {c} — contains no formula equivalent to the finite query
// P(M, c, x) of a total machine M, for as many members as we care to check.
// (Theorem 3.1 proves no recursive class can contain one and still consist
// of finite formulas.)
func TestTheorem31SyntaxMissesFiniteQuery(t *testing.T) {
	busy := turing.Encode(turing.BusyWork(1))
	syntax := ActiveDomainSyntax{
		Scheme: TotalityScheme(),
		Enum: FormulaEnumerator{Sig: Signature{
			Preds:  map[string]int{traces.PredT: 1, traces.PredW: 1},
			Consts: []string{DBConst, ""},
			Vars:   []string{"x"},
		}},
	}
	for r := 0; r < 24; r++ {
		cand, err := syntax.Enumerate(r)
		if err != nil {
			t.Fatalf("Enumerate(%d): %v", r, err)
		}
		ok, err := VerifyTotality(context.Background(), busy, cand)
		if err != nil {
			t.Fatalf("VerifyTotality on member %d (%v): %v", r, cand, err)
		}
		if ok {
			t.Fatalf("active-domain member %d claims equivalence with P(M,c,x): %v", r, cand)
		}
	}
}

// TestEnumerateTotal runs the diagonal procedure on a mixed machine list
// with a sound candidate family: total machines with a characterization in
// the family are certified; the diverging machine never is.
func TestEnumerateTotal(t *testing.T) {
	busy := turing.Encode(turing.BusyWork(1))
	halt := turing.Encode(turing.HaltImmediately())
	loop := turing.Encode(turing.LoopForever())
	// The candidate family: characterizations of the two total machines
	// (finite formulas) plus an active-domain-style dud.
	candidates := []*logic.Formula{
		logic.And(logic.Atom(traces.PredT, logic.Var("x")), logic.Eq(logic.Var("x"), logic.Const(DBConst))),
		characterization(busy),
		characterization(halt),
	}
	certs, err := EnumerateTotal(context.Background(), []string{busy, halt, loop}, candidates)
	if err != nil {
		t.Fatalf("EnumerateTotal: %v", err)
	}
	certified := map[string]bool{}
	for _, c := range certs {
		certified[c.MachineWord] = true
	}
	if !certified[busy] || !certified[halt] {
		t.Errorf("total machines not certified: %v", certs)
	}
	if certified[loop] {
		t.Errorf("diverging machine certified total")
	}
	// Empirical totality agrees on the prefix.
	for _, m := range []string{busy, halt} {
		total, _, err := TotalOnPrefix(m, 3, 100)
		if err != nil || !total {
			t.Errorf("TotalOnPrefix(%q) = %v, %v", m, total, err)
		}
	}
	total, witness, err := TotalOnPrefix(loop, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if total {
		t.Errorf("loop machine reported total")
	}
	_ = witness
}

// TestTotalityQueryAnswers: the totality query's answer in a state is the
// trace family, finite for a total machine.
func TestTotalityQueryAnswers(t *testing.T) {
	m := turing.BusyWork(2)
	enc := turing.Encode(m)
	st := db.NewState(TotalityScheme())
	if err := st.SetConstant(DBConst, domain.Word("1&")); err != nil {
		t.Fatal(err)
	}
	f := TotalityQuery(enc)
	pure, err := query.Translate(traces.Domain{}, st, f)
	if err != nil {
		t.Fatal(err)
	}
	dec := traces.Decider()
	want := turing.Traces(m, enc, "1&", 10)
	for _, tr := range want {
		v, err := dec.Decide(context.Background(), logic.Subst(pure, "x", logic.Const(tr)))
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		if !v {
			t.Errorf("trace %q missing from answer", tr)
		}
	}
	// The answer has exactly len(want) elements: no further trace exists.
	conj := []*logic.Formula{pure}
	for _, tr := range want {
		conj = append(conj, logic.Neq(logic.Var("x"), logic.Const(tr)))
	}
	more, err := dec.Decide(context.Background(), logic.Exists("x", logic.And(conj...)))
	if err != nil {
		t.Fatal(err)
	}
	if more {
		t.Errorf("unexpected extra answer to the totality query")
	}
}

// TestTotalityQueryUnary exercises the closing-remark variant with a unary
// relation R standing for the constant.
func TestTotalityQueryUnary(t *testing.T) {
	m := turing.BusyWork(1)
	enc := turing.Encode(m)
	st := db.NewState(UnaryScheme())
	if err := st.Insert(UnaryRel, domain.Word("1")); err != nil {
		t.Fatal(err)
	}
	f := TotalityQueryUnary(enc)
	pure, err := query.Translate(traces.Domain{}, st, f)
	if err != nil {
		t.Fatal(err)
	}
	dec := traces.Decider()
	want := turing.Traces(m, enc, "1", 10)
	for _, tr := range want {
		v, err := dec.Decide(context.Background(), logic.Subst(pure, "x", logic.Const(tr)))
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		if !v {
			t.Errorf("trace %q missing from unary-variant answer", tr)
		}
	}
	// With two R rows the singleton premise fails and the answer is empty.
	st2 := db.NewState(UnaryScheme())
	if err := st2.Insert(UnaryRel, domain.Word("1")); err != nil {
		t.Fatal(err)
	}
	if err := st2.Insert(UnaryRel, domain.Word("11")); err != nil {
		t.Fatal(err)
	}
	pure2, err := query.Translate(traces.Domain{}, st2, f)
	if err != nil {
		t.Fatal(err)
	}
	v, err := dec.Decide(context.Background(), logic.Exists("x", pure2))
	if err != nil {
		t.Fatal(err)
	}
	if v {
		t.Errorf("non-singleton R should empty the unary totality query")
	}
}

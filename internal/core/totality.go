package core

import (
	"context"
	"fmt"

	"repro/internal/db"
	"repro/internal/logic"
	"repro/internal/traces"
	"repro/internal/turing"
)

// This file implements the Theorem 3.1 machinery: totality queries, the
// equivalence sentences that a recursive syntax would make decidable, and
// the enumeration of certified-total machines that the theorem shows cannot
// be complete.

// DBConst is the database constant symbol of the Theorem 3.1 scheme
// ("consider a database scheme that consists of one constant symbol c").
const DBConst = "c"

// UnaryRel is the relation symbol of the theorem's closing remark ("a
// database scheme may contain, say, one unary relation R instead of the
// constant symbol").
const UnaryRel = "R"

// TotalityScheme returns the scheme with the single constant c.
func TotalityScheme() *db.Scheme {
	return db.MustScheme(map[string]int{}, DBConst)
}

// UnaryScheme returns the variant scheme with one unary relation R.
func UnaryScheme() *db.Scheme {
	return db.MustScheme(map[string]int{UnaryRel: 1})
}

// TotalityQuery returns M(x) := P(M, c, x). "The formula M(x) is finite iff
// M is total": a total machine has finitely many traces on every input,
// while a machine diverging on some input has infinitely many traces there.
func TotalityQuery(machineWord string) *logic.Formula {
	return logic.Atom(traces.PredP,
		logic.Const(machineWord), logic.Const(DBConst), logic.Var("x"))
}

// TotalityQueryUnary is the closing-remark variant over the unary scheme:
//
//	(∀x,y)(R(x) ∧ R(y) → x = y) ∧ (∃y)(R(y) ∧ P(M, y, x)).
func TotalityQueryUnary(machineWord string) *logic.Formula {
	x, y := logic.Var("x0"), logic.Var("y0")
	singleton := logic.ForallAll([]string{"x0", "y0"},
		logic.Implies(
			logic.And(logic.Atom(UnaryRel, x), logic.Atom(UnaryRel, y)),
			logic.Eq(x, y)))
	body := logic.Exists("y0", logic.And(
		logic.Atom(UnaryRel, y),
		logic.Atom(traces.PredP, logic.Const(machineWord), y, logic.Var("x"))))
	return logic.And(singleton, body)
}

// EquivalenceSentence builds the Theorem 3.1 sentence
//
//	(∀z)(∀x)( a(x)[z/c] ↔ b(x)[z/c] )
//
// where [z/c] substitutes the fresh variable z for the database constant c.
// The sentence is a pure-domain sentence of the trace theory, so its truth
// is decidable (Corollary A.4); truth certifies that a and b denote the
// same query in every state.
func EquivalenceSentence(a, b *logic.Formula) *logic.Formula {
	z := logic.FreshVar("z", a, b)
	az := logic.SubstConst(a, DBConst, logic.Var(z))
	bz := logic.SubstConst(b, DBConst, logic.Var(z))
	vars := logic.SortedUnique(append(az.FreeVars(), bz.FreeVars()...))
	// z first, then the query variables, matching the paper's (∀z)(∀x).
	ordered := []string{z}
	for _, v := range vars {
		if v != z {
			ordered = append(ordered, v)
		}
	}
	return logic.ForallAll(ordered, logic.Iff(az, bz))
}

// totalityDecider decides every equivalence sentence behind one decision
// cache, so a repeated verification is a cache hit.
var totalityDecider = traces.Decider()

// VerifyTotality runs one step of the Theorem 3.1 construction: it decides
// the equivalence sentence between the machine's totality query and a
// candidate formula. "Now if it happens to be true, we know that M_k is a
// total machine, because the truth of this sentence implies that M_k(x) is
// finite" — provided the candidate belongs to a class of finite formulas.
// The decision runs under ctx's run configuration and stops with ctx's
// error once ctx is done.
func VerifyTotality(ctx context.Context, machineWord string, candidate *logic.Formula) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if !turing.IsMachineWord(machineWord) {
		return false, fmt.Errorf("core: %q is not a machine word", machineWord)
	}
	sentence := EquivalenceSentence(TotalityQuery(machineWord), candidate)
	return totalityDecider.Decide(ctx, sentence)
}

// Certification records one certified-total machine and the witnessing
// candidate formula.
type Certification struct {
	MachineWord string
	Candidate   *logic.Formula
	// CandidateIndex is the index of the witnessing formula in the
	// candidate enumeration.
	CandidateIndex int
}

// EnumerateTotal runs the diagonal enumeration of Theorem 3.1: "by
// continuously analyzing all pairs of k and r, we can establish a recursive
// enumeration of all total Turing machines" — given a purported recursive
// syntax for finite queries. Candidates plays the role of φ_1, φ_2, …; the
// machines of machineWords play M_1, M_2, …. The function returns every
// machine certified total by some candidate.
//
// Theorem 3.1's point is that no recursive candidate family can make this
// enumeration complete for total machines, since the set of total machines
// is not recursively enumerable. Tests exhibit the incompleteness on
// concrete candidate families.
func EnumerateTotal(ctx context.Context, machineWords []string, candidates []*logic.Formula) ([]Certification, error) {
	var out []Certification
	for _, m := range machineWords {
		for r, cand := range candidates {
			ok, err := VerifyTotality(ctx, m, cand)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, Certification{MachineWord: m, Candidate: cand, CandidateIndex: r})
				break
			}
		}
	}
	return out, nil
}

// TotalOnPrefix semi-checks totality empirically: the machine halts within
// the step budget on every input word of length at most maxLen. A true
// result is only evidence (totality is Π⁰₂-complete); a false result is a
// counterexample input.
func TotalOnPrefix(machineWord string, maxLen, stepBudget int) (bool, string, error) {
	m, err := turing.Decode(machineWord)
	if err != nil {
		return false, "", err
	}
	words := []string{""}
	frontier := []string{""}
	for i := 0; i < maxLen; i++ {
		var next []string
		for _, w := range frontier {
			next = append(next, w+"1", w+"&")
		}
		words = append(words, next...)
		frontier = next
	}
	for _, w := range words {
		if _, halted := turing.StepsToHalt(m, w, stepBudget); !halted {
			return false, w, nil
		}
	}
	return true, "", nil
}

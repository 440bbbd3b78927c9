package presburger

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genLinear wraps a random linear term for testing/quick.
type genLinear struct {
	T LinearTerm
}

// Generate implements quick.Generator.
func (genLinear) Generate(rng *rand.Rand, size int) reflect.Value {
	var t LinearTerm
	for _, v := range []string{"x", "y", "z"} {
		if rng.Intn(2) == 0 {
			t = t.Add(FromVar(v).Scale(NumOf(int64(rng.Intn(21) - 10))))
		}
	}
	t.Const = NumOf(int64(rng.Intn(41) - 20))
	return reflect.ValueOf(genLinear{T: t})
}

var quickCfg = &quick.Config{MaxCount: 300}

func randEnv(rng *rand.Rand) map[string]Num {
	return map[string]Num{
		"x": NumOf(int64(rng.Intn(41) - 20)),
		"y": NumOf(int64(rng.Intn(41) - 20)),
		"z": NumOf(int64(rng.Intn(41) - 20)),
	}
}

// TestQuickAddCommutative: a+b = b+a, both structurally and semantically.
func TestQuickAddCommutative(t *testing.T) {
	prop := func(a, b genLinear) bool {
		return a.T.Add(b.T).Equal(b.T.Add(a.T))
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickAddAssociative: (a+b)+c = a+(b+c).
func TestQuickAddAssociative(t *testing.T) {
	prop := func(a, b, c genLinear) bool {
		return a.T.Add(b.T).Add(c.T).Equal(a.T.Add(b.T.Add(c.T)))
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSubIsAddNeg: a−b = a+(−b) and a−a = 0.
func TestQuickSubIsAddNeg(t *testing.T) {
	prop := func(a, b genLinear) bool {
		if !a.T.Sub(b.T).Equal(a.T.Add(b.T.Neg())) {
			return false
		}
		z := a.T.Sub(a.T)
		return z.IsConst() && z.Const.Sign() == 0
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickScaleDistributes: k(a+b) = ka + kb.
func TestQuickScaleDistributes(t *testing.T) {
	prop := func(a, b genLinear, kRaw int8) bool {
		k := NumOf(int64(kRaw % 7))
		return a.T.Add(b.T).Scale(k).Equal(a.T.Scale(k).Add(b.T.Scale(k)))
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickEvalHomomorphism: evaluation commutes with the term algebra.
func TestQuickEvalHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prop := func(a, b genLinear) bool {
		env := randEnv(rng)
		va, err := a.T.Eval(env)
		if err != nil {
			return false
		}
		vb, err := b.T.Eval(env)
		if err != nil {
			return false
		}
		vsum, err := a.T.Add(b.T).Eval(env)
		if err != nil {
			return false
		}
		return vsum.Cmp(va.Add(vb)) == 0
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSubstEval: substitution then evaluation equals evaluation with
// the substituted value — Subst is semantic substitution.
func TestQuickSubstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prop := func(a, b genLinear) bool {
		env := randEnv(rng)
		// Substitute x := b, then evaluate; compare against evaluating a
		// with x bound to b's value.
		vb, err := b.T.Eval(env)
		if err != nil {
			return false
		}
		env2 := map[string]Num{"x": vb, "y": env["y"], "z": env["z"]}
		va, err := a.T.Eval(env2)
		if err != nil {
			return false
		}
		vs, err := a.T.Subst("x", b.T).Eval(env)
		if err != nil {
			return false
		}
		return vs.Cmp(va) == 0
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickRenderParseRoundTrip: Render∘ParseLinear is the identity.
func TestQuickRenderParseRoundTrip(t *testing.T) {
	prop := func(a genLinear) bool {
		back, err := ParseLinear(Render(a.T))
		return err == nil && back.Equal(a.T)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickImmutable: terms share their coefficient slices, so no
// operation may write into an operand. After every operation, and further
// operations on the results, the operands and the results print as before.
func TestQuickImmutable(t *testing.T) {
	prop := func(a, b genLinear, kRaw int8) bool {
		k := NumOf(int64(kRaw % 7))
		terms := []LinearTerm{
			a.T, b.T, a.T.Add(b.T), a.T.Sub(b.T), a.T.Scale(k), a.T.Subst("x", b.T),
			b.T.Subst("y", a.T), a.T.AddInt(5), a.T.Neg(), a.T.unit("x", NumOf(3)),
		}
		before := make([]string, len(terms))
		for i, u := range terms {
			before[i] = u.String()
		}
		var more []LinearTerm
		for _, u := range terms {
			more = append(more, u.Add(b.T).AddInt(1).Scale(NumOf(2)).Subst("z", a.T), u.unit("y", NumOf(2)).Sub(a.T))
		}
		for i, u := range terms {
			if u.String() != before[i] {
				return false
			}
		}
		return len(more) == 2*len(terms)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// Package zless implements the integers with order — the paper's remark
// that "integers with < can be handled similarly after a minor modification
// of the finitization procedure": over ℤ a finite answer needs bounds on
// both sides, so the finitization gains a lower bound (core.FinitizeZ).
// Decidability comes from Cooper's algorithm in its native ℤ mode.
package zless

import (
	"fmt"
	"strconv"

	"repro/internal/domain"
	"repro/internal/presburger"
)

// PredLt re-exports the order predicate spelling.
const PredLt = presburger.PredLt

// Domain is ℤ with the Presburger signature. Constants are decimal
// numerals, negatives included.
type Domain struct{}

// Name implements domain.Domain.
func (Domain) Name() string { return "zless" }

// ConstValue implements domain.Interp.
func (Domain) ConstValue(name string) (domain.Value, error) {
	n, err := strconv.ParseInt(name, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("zless: constant %q is not an integer numeral", name)
	}
	return domain.Int(n), nil
}

// ConstName implements domain.Domain.
func (Domain) ConstName(v domain.Value) string { return v.Key() }

// Func implements domain.Interp: full integer arithmetic (true subtraction,
// unlike ℕ's monus).
func (Domain) Func(name string, args []domain.Value) (domain.Value, error) {
	if len(args) != 2 && !(name == presburger.FuncNeg && len(args) == 1) {
		return nil, fmt.Errorf("zless: %s arity mismatch", name)
	}
	get := func(i int) (int64, error) {
		n, ok := args[i].(domain.Int)
		if !ok {
			return 0, fmt.Errorf("zless: non-integer value %v", args[i])
		}
		return int64(n), nil
	}
	a, err := get(0)
	if err != nil {
		return nil, err
	}
	if name == presburger.FuncNeg {
		return domain.Int(-a), nil
	}
	b, err := get(1)
	if err != nil {
		return nil, err
	}
	switch name {
	case presburger.FuncAdd:
		return domain.Int(a + b), nil
	case presburger.FuncSub:
		return domain.Int(a - b), nil
	case presburger.FuncMul:
		return domain.Int(a * b), nil
	}
	return nil, fmt.Errorf("zless: unknown function %q", name)
}

// Pred implements domain.Interp.
func (Domain) Pred(name string, args []domain.Value) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("zless: %s expects 2 arguments", name)
	}
	a, ok := args[0].(domain.Int)
	if !ok {
		return false, fmt.Errorf("zless: non-integer value %v", args[0])
	}
	b, ok := args[1].(domain.Int)
	if !ok {
		return false, fmt.Errorf("zless: non-integer value %v", args[1])
	}
	switch name {
	case presburger.PredLt:
		return a < b, nil
	case presburger.PredLe:
		return a <= b, nil
	case presburger.PredGt:
		return a > b, nil
	case presburger.PredGe:
		return a >= b, nil
	case presburger.PredDvd:
		if a <= 0 {
			return false, fmt.Errorf("zless: dvd modulus must be positive")
		}
		m := int64(b) % int64(a)
		return m == 0, nil
	}
	return false, fmt.Errorf("zless: unknown predicate %q", name)
}

// Element implements domain.Enumerator: 0, 1, −1, 2, −2, …
func (Domain) Element(i int) domain.Value {
	if i == 0 {
		return domain.Int(0)
	}
	half := (i + 1) / 2
	if i%2 == 1 {
		return domain.Int(int64(half))
	}
	return domain.Int(int64(-half))
}

// Eliminator returns Cooper's algorithm in ℤ mode.
func Eliminator() domain.Eliminator { return presburger.Eliminator{Integers: true} }

// Decider returns the ℤ decision procedure: Cooper's algorithm in ℤ mode.
func Decider() domain.Decider { return presburger.Eliminator{Integers: true} }

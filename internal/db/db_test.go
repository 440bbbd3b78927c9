package db

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/domain"
)

func TestSchemeValidation(t *testing.T) {
	if _, err := NewScheme(map[string]int{"R": 0}); err == nil {
		t.Errorf("zero arity accepted")
	}
	s, err := NewScheme(map[string]int{"R": 2}, "c")
	if err != nil {
		t.Fatalf("NewScheme: %v", err)
	}
	if !s.HasConstant("c") || s.HasConstant("d") {
		t.Errorf("HasConstant wrong")
	}
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation(2)
	if r.Arity() != 2 || r.Len() != 0 {
		t.Errorf("fresh relation wrong")
	}
	t1 := Tuple{domain.Int(1), domain.Int(2)}
	if err := r.Add(t1); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := r.Add(Tuple{domain.Int(1)}); err == nil {
		t.Errorf("arity mismatch accepted")
	}
	if !r.Has(t1) || r.Has(Tuple{domain.Int(2), domain.Int(1)}) {
		t.Errorf("Has wrong")
	}
	// Duplicates collapse.
	if err := r.Add(Tuple{domain.Int(1), domain.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Errorf("duplicate not collapsed: %d", r.Len())
	}
	// Clone independence.
	c := r.Clone()
	if err := c.Add(Tuple{domain.Int(3), domain.Int(4)}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone shares storage")
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Keys must not collide across different splits of the same bytes.
	a := Tuple{domain.Word("a,b"), domain.Word("c")}
	b := Tuple{domain.Word("a"), domain.Word("b,c")}
	if a.Key() == b.Key() {
		t.Errorf("tuple keys collide: %q", a.Key())
	}
	if a.String() != "(a,b, c)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestStateBasics(t *testing.T) {
	scheme := MustScheme(map[string]int{"F": 2}, "c")
	st := NewState(scheme)
	if err := st.Insert("F", domain.Word("abel"), domain.Word("cain")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := st.Insert("G", domain.Word("x")); err == nil {
		t.Errorf("unknown relation accepted")
	}
	if err := st.SetConstant("c", domain.Word("adam")); err != nil {
		t.Fatalf("SetConstant: %v", err)
	}
	if err := st.SetConstant("d", domain.Word("x")); err == nil {
		t.Errorf("unknown constant accepted")
	}
	v, err := st.Constant("c")
	if err != nil || v.Key() != "adam" {
		t.Errorf("Constant: %v %v", v, err)
	}
	ad := st.ActiveDomain()
	if len(ad) != 3 {
		t.Fatalf("active domain size %d, want 3", len(ad))
	}
	// Sorted by key: abel, adam, cain.
	if ad[0].Key() != "abel" || ad[1].Key() != "adam" || ad[2].Key() != "cain" {
		t.Errorf("active domain order: %v", ad)
	}
	if !strings.Contains(st.String(), "c = adam") {
		t.Errorf("String missing constant: %q", st.String())
	}
	// Clone independence.
	c2 := st.Clone()
	if err := c2.Insert("F", domain.Word("x"), domain.Word("y")); err != nil {
		t.Fatal(err)
	}
	r, _ := st.Relation("F")
	if r.Len() != 1 {
		t.Errorf("clone shares relations")
	}
}

func TestConstantUnset(t *testing.T) {
	st := NewState(MustScheme(map[string]int{"R": 1}, "c"))
	if _, err := st.Constant("c"); err == nil {
		t.Errorf("unset constant readable")
	}
}

// fmtKey is the tuple key written with fmt, the reference implementation
// the appending Key must match byte for byte.
func fmtKey(t Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprintf("%d:%s", len(v.Key()), v.Key())
	}
	return strings.Join(parts, ",")
}

// otherValue is a Value of neither built-in type, so Key's general path
// is covered too.
type otherValue string

func (o otherValue) Key() string    { return "o" + string(o) }
func (o otherValue) String() string { return string(o) }

func randValue(rng *rand.Rand) domain.Value {
	switch rng.Intn(6) {
	case 0:
		return domain.Int([]int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -1, 0}[rng.Intn(5)])
	case 1:
		return domain.Int(rng.Int63() - rng.Int63())
	case 2:
		return domain.Int(rng.Intn(200) - 100)
	case 3, 4:
		pieces := []string{",", ":", "1:", "a", "é", "∃", "日本", "\x00", "", "10:", "&|"}
		var b strings.Builder
		for i := rng.Intn(6); i > 0; i-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return domain.Word(b.String())
	}
	return otherValue(fmt.Sprint(rng.Intn(1000)))
}

// TestTupleKeyMatchesReference: Key and AppendKey produce the reference
// bytes on random tuples of arity 0 to 3, whatever the buffer already
// holds.
func TestTupleKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		tuple := make(Tuple, rng.Intn(4))
		for j := range tuple {
			tuple[j] = randValue(rng)
		}
		want := fmtKey(tuple)
		if got := tuple.Key(); got != want {
			t.Fatalf("Key(%v) = %q, reference %q", tuple, got, want)
		}
		if got := string(tuple.AppendKey([]byte("prefix"))); got != "prefix"+want {
			t.Fatalf("AppendKey(%v) = %q, reference %q", tuple, got, "prefix"+want)
		}
	}
}

// TestHasAllocatesNothing: a membership probe builds its key on the stack.
func TestHasAllocatesNothing(t *testing.T) {
	r := NewRelation(2)
	for i := 0; i < 50; i++ {
		if err := r.Add(Tuple{domain.Int(i * 7919), domain.Word("w")}); err != nil {
			t.Fatal(err)
		}
	}
	hit, miss := Tuple{domain.Int(7919), domain.Word("w")}, Tuple{domain.Int(-3), domain.Word("w")}
	if n := testing.AllocsPerRun(100, func() {
		if !r.Has(hit) || r.Has(miss) {
			t.Fatal("Has wrong")
		}
	}); n != 0 {
		t.Fatalf("Has allocates %.1f objects per call", n)
	}
}

// TestActiveDomainMatchesReference: the active domain of random states is
// the set of their values and constants, in key order, each once.
func TestActiveDomainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		st := NewState(MustScheme(map[string]int{"R": 1, "S": 2, "T": 3}, "c", "d"))
		for _, name := range []string{"R", "S", "T"} {
			r, _ := st.Relation(name)
			for n := rng.Intn(12); n > 0; n-- {
				tuple := make(Tuple, r.Arity())
				for j := range tuple {
					tuple[j] = domain.Int(rng.Intn(30) - 10)
					if rng.Intn(3) == 0 {
						tuple[j] = domain.Word(fmt.Sprint("w", rng.Intn(5)))
					}
				}
				if err := r.Add(tuple); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.Intn(2) == 0 {
			if err := st.SetConstant("c", domain.Int(rng.Intn(40))); err != nil {
				t.Fatal(err)
			}
		}
		// The reference: a key-indexed set, read back in key order.
		seen := map[string]domain.Value{}
		for _, r := range st.rels {
			for _, tuple := range r.Tuples() {
				for _, v := range tuple {
					seen[v.Key()] = v
				}
			}
		}
		for _, v := range st.consts {
			seen[v.Key()] = v
		}
		keys := make([]string, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		got := st.ActiveDomain()
		if len(got) != len(keys) || cap(got) != len(got) {
			t.Fatalf("state %d: %d values (cap %d), reference %d", i, len(got), cap(got), len(keys))
		}
		for j, k := range keys {
			if got[j] != seen[k] {
				t.Fatalf("state %d: value %d is %v, reference %v", i, j, got[j], seen[k])
			}
		}
	}
}

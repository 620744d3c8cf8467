package sym

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestSampleStoreBasics(t *testing.T) {
	var p Pool
	h := p.FuncSym("h", 1)
	g := p.FuncSym("g", 2)
	s := NewSampleStore()

	if !s.Add(h, []int64{42}, 567) {
		t.Fatal("first add should be new")
	}
	if s.Add(h, []int64{42}, 567) {
		t.Fatal("duplicate add should not be new")
	}
	s.Add(h, []int64{10}, 66)
	s.Add(g, []int64{1, 2}, 3)

	if v, ok := s.Lookup(h, []int64{42}); !ok || v != 567 {
		t.Fatalf("lookup h(42) = %d %v", v, ok)
	}
	if _, ok := s.Lookup(h, []int64{99}); ok {
		t.Fatal("h(99) should be unknown")
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := len(s.ForFunc(h)); got != 2 {
		t.Fatalf("ForFunc(h) = %d", got)
	}
	if got := len(s.All()); got != 3 {
		t.Fatalf("All() = %d", got)
	}
	if v, ok := s.FnEval(g, []int64{1, 2}); !ok || v != 3 {
		t.Fatalf("FnEval = %d %v", v, ok)
	}
}

func TestSampleStoreDeterminismPanic(t *testing.T) {
	var p Pool
	h := p.FuncSym("h", 1)
	s := NewSampleStore()
	s.Add(h, []int64{1}, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting sample should panic")
		}
	}()
	s.Add(h, []int64{1}, 6)
}

func TestSampleStoreArityPanic(t *testing.T) {
	var p Pool
	h := p.FuncSym("h", 1)
	s := NewSampleStore()
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity should panic")
		}
	}()
	s.Add(h, []int64{1, 2}, 5)
}

func TestSampleStoreCloneAndMerge(t *testing.T) {
	var p Pool
	h := p.FuncSym("h", 1)
	a := NewSampleStore()
	a.Add(h, []int64{1}, 10)
	b := a.Clone()
	b.Add(h, []int64{2}, 20)
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatalf("clone isolation: a=%d b=%d", a.Len(), b.Len())
	}
	a.Merge(b)
	if a.Len() != 2 {
		t.Fatalf("merge: %d", a.Len())
	}
}

func TestSampleStoreArgsCopied(t *testing.T) {
	var p Pool
	h := p.FuncSym("h", 1)
	s := NewSampleStore()
	args := []int64{7}
	s.Add(h, args, 1)
	args[0] = 99 // must not corrupt the store
	if _, ok := s.Lookup(h, []int64{7}); !ok {
		t.Fatal("stored args were aliased")
	}
}

func TestSampleEncodeDecodeRoundTrip(t *testing.T) {
	var p Pool
	h := p.FuncSym("hash", 1)
	g := p.FuncSym("hashstr", 3)
	s := NewSampleStore()
	s.Add(h, []int64{42}, 567)
	s.Add(h, []int64{-3}, 12)
	s.Add(g, []int64{105, 102, 0}, 52)

	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}

	var p2 Pool
	dst := NewSampleStore()
	added, err := DecodeSamples(&buf, dst, &p2)
	if err != nil || added != 3 {
		t.Fatalf("decode: added=%d err=%v", added, err)
	}
	h2 := p2.FuncSym("hash", 1)
	if v, ok := dst.Lookup(h2, []int64{42}); !ok || v != 567 {
		t.Fatalf("round-trip lost hash(42): %d %v", v, ok)
	}
	g2 := p2.FuncSym("hashstr", 3)
	if v, ok := dst.Lookup(g2, []int64{105, 102, 0}); !ok || v != 52 {
		t.Fatalf("round-trip lost hashstr: %d %v", v, ok)
	}
}

func TestDecodeSamplesDuplicatesAndConflicts(t *testing.T) {
	var p Pool
	h := p.FuncSym("hash", 1)
	s := NewSampleStore()
	s.Add(h, []int64{1}, 5)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Decoding into a store that already has the sample: zero added, no error.
	var p2 Pool
	dst := NewSampleStore()
	dst.Add(p2.FuncSym("hash", 1), []int64{1}, 5)
	added, err := DecodeSamples(bytes.NewReader(buf.Bytes()), dst, &p2)
	if err != nil || added != 0 {
		t.Fatalf("idempotent decode: added=%d err=%v", added, err)
	}
	// Conflicting value: error, no panic.
	var p3 Pool
	dst3 := NewSampleStore()
	dst3.Add(p3.FuncSym("hash", 1), []int64{1}, 6)
	if _, err := DecodeSamples(bytes.NewReader(buf.Bytes()), dst3, &p3); err == nil {
		t.Fatal("conflicting decode should error")
	}
}

func TestDecodeSamplesMalformed(t *testing.T) {
	cases := []string{
		`not json`,
		`[{"fn":"","arity":1,"args":[1],"out":2}]`,
		`[{"fn":"h","arity":2,"args":[1],"out":2}]`,
		`[{"fn":"h","arity":0,"args":[],"out":2}]`,
	}
	for _, c := range cases {
		var p Pool
		if _, err := DecodeSamples(strings.NewReader(c), NewSampleStore(), &p); err == nil {
			t.Fatalf("decode %q should fail", c)
		}
	}
	// Arity clash with an existing symbol.
	var p Pool
	p.FuncSym("h", 3)
	if _, err := DecodeSamples(strings.NewReader(`[{"fn":"h","arity":1,"args":[1],"out":2}]`),
		NewSampleStore(), &p); err == nil {
		t.Fatal("arity clash should fail")
	}
}

func TestSampleString(t *testing.T) {
	var p Pool
	g := p.FuncSym("g", 2)
	smp := Sample{Fn: g, Args: []int64{1, -2}, Out: 7}
	if got := smp.String(); got != "g(1,-2)=7" {
		t.Fatalf("String = %q", got)
	}
}

// TestEachForFuncMatchesForFunc checks the copy-free iteration against
// ForFunc on an overlay (base entries first), including an early stop.
func TestEachForFuncMatchesForFunc(t *testing.T) {
	var p Pool
	f, g := p.FuncSym("f", 1), p.FuncSym("g", 2)
	base := NewSampleStore()
	base.Add(f, []int64{1}, 10)
	base.Add(g, []int64{1, 2}, 3)
	base.Add(f, []int64{2}, 20)
	ov := NewOverlay(base)
	ov.Add(f, []int64{3}, 30)
	ov.Add(g, []int64{4, 5}, 9)
	for _, s := range []*SampleStore{base, ov} {
		for _, fn := range []*Func{f, g} {
			var got []string
			if !s.EachForFunc(fn, func(smp Sample) bool { got = append(got, smp.String()); return true }) {
				t.Fatalf("EachForFunc(%s) stopped without being asked to", fn)
			}
			var want []string
			for _, smp := range s.ForFunc(fn) {
				want = append(want, smp.String())
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("EachForFunc(%s) = %v, ForFunc = %v", fn, got, want)
			}
		}
	}
	n := 0
	if ov.EachForFunc(f, func(Sample) bool { n++; return n < 2 }) || n != 2 {
		t.Errorf("early stop: visited %d samples, want 2 and a false result", n)
	}
}

// TestArgsKeyBytes pins the sample-map key format: decimal values joined by
// commas, as fmt's %d renders them.
func TestArgsKeyBytes(t *testing.T) {
	for _, args := range [][]int64{nil, {0}, {-1, 2}, {math.MinInt64, math.MaxInt64, 7}} {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = fmt.Sprintf("%d", a)
		}
		if got, want := argsKey(args), strings.Join(parts, ","); got != want {
			t.Errorf("argsKey(%v) = %q, want %q", args, got, want)
		}
	}
}

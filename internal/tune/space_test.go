package tune

import (
	"reflect"
	"testing"
)

func testSpace() *Space {
	return NewSpace(
		LogFloat("mem", 1, 1024, 16).WithDoc("memory", 9),
		Int("workers", 1, 8, 2).WithDoc("parallelism", 5),
		Bool("compress", false).WithDoc("codec", 2),
		Choice("policy", []string{"lru", "clock"}, "lru").WithDoc("cache", 1),
	)
}

func TestNewSpacePanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate parameter name")
		}
	}()
	NewSpace(Float("x", 0, 1, 0), Int("x", 0, 1, 0))
}

func TestSpaceLookups(t *testing.T) {
	s := testSpace()
	if s.Dim() != 4 {
		t.Fatalf("Dim = %d, want 4", s.Dim())
	}
	if p, ok := s.Param("workers"); !ok || p.Kind != KindInt {
		t.Errorf("Param(workers) = %+v, %v", p, ok)
	}
	if _, ok := s.Param("nope"); ok {
		t.Error("Param(nope) should not exist")
	}
	if s.IndexOf("compress") != 2 || s.IndexOf("nope") != -1 {
		t.Error("IndexOf wrong")
	}
	want := []string{"mem", "workers", "compress", "policy"}
	if !reflect.DeepEqual(s.Names(), want) {
		t.Errorf("Names = %v", s.Names())
	}
}

func TestDefaultConfig(t *testing.T) {
	s := testSpace()
	d := s.Default()
	if v := d.Float("mem"); v < 15.9 || v > 16.1 {
		t.Errorf("default mem = %v, want 16", v)
	}
	if d.Int("workers") != 2 || d.Bool("compress") || d.Str("policy") != "lru" {
		t.Errorf("default config wrong: %s", d)
	}
}

func TestFromVectorClampsAndCopies(t *testing.T) {
	s := testSpace()
	x := []float64{-1, 2, 0.5, 0.5}
	c := s.FromVector(x)
	v := c.Vector()
	if v[0] != 0 || v[1] != 1 {
		t.Errorf("coordinates not clamped: %v", v)
	}
	x[2] = 0.9 // mutating the input must not affect the config
	if c.Vector()[2] != 0.5 {
		t.Error("FromVector must copy its input")
	}
}

func TestFromVectorPanicsOnDimension(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong dimension")
		}
	}()
	testSpace().FromVector([]float64{0.5})
}

func TestByImpactOrdering(t *testing.T) {
	got := testSpace().ByImpact()
	want := []string{"mem", "workers", "compress", "policy"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ByImpact = %v, want %v", got, want)
	}
}

func TestEffectiveDim(t *testing.T) {
	s := NewSpace(Float("a", 0, 1, 0), Float("b", 0, 1, 0).AsInert())
	if s.EffectiveDim() != 1 {
		t.Errorf("EffectiveDim = %d, want 1", s.EffectiveDim())
	}
}

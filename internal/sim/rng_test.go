package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("generators with different seeds matched %d/100 outputs", same)
	}
}

func TestRNGStreamsDiffer(t *testing.T) {
	a := NewRNGStream(42, 1)
	b := NewRNGStream(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams matched %d/100 outputs", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRNG(1)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestRNGIntnUniformity(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("bucket %d: %d draws, want about %d", i, c, want)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestRNGExpFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %v negative", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-1.0) > 0.02 {
		t.Errorf("ExpFloat64 mean = %v, want about 1", mean)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRNGDerangementHasNoFixedPoints(t *testing.T) {
	r := NewRNG(17)
	for _, n := range []int{2, 3, 5, 16, 100, 512} {
		for trial := 0; trial < 20; trial++ {
			p := r.Derangement(n)
			seen := make([]bool, n)
			for i, v := range p {
				if v == i {
					t.Fatalf("Derangement(%d) has fixed point at %d", n, i)
				}
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("Derangement(%d) is not a permutation: %v", n, p)
				}
				seen[v] = true
			}
		}
	}
}

func TestRNGDerangementPanicsForSmallN(t *testing.T) {
	r := NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Error("Derangement(1) did not panic")
		}
	}()
	r.Derangement(1)
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(123)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split generators matched %d/100 outputs", same)
	}
}

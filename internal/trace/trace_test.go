package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSamplerRecordsAtInterval(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, sim.Millisecond)
	v := 0.0
	ser := s.Add("v", func() float64 { return v })
	s.Start()
	// Drive the value over time.
	for i := 1; i <= 10; i++ {
		i := i
		eng.At(sim.Time(i)*sim.Millisecond, func() { v = float64(i) })
	}
	eng.RunUntil(5500 * sim.Microsecond)
	if len(ser.Times) != 5 {
		t.Fatalf("samples = %d, want 5", len(ser.Times))
	}
	for i, ts := range ser.Times {
		if ts != sim.Time(i+1)*sim.Millisecond {
			t.Errorf("sample %d at %v", i, ts)
		}
	}
	// The setter at t=i ms runs before the sampler's tick at the same
	// instant (scheduled earlier), so sample i sees value i+1.
	if last := ser.Values[len(ser.Values)-1]; last != 5 {
		t.Errorf("last = %v, want 5", last)
	}
}

func TestSamplerStop(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, sim.Millisecond)
	ser := s.Add("x", func() float64 { return 1 })
	s.Start()
	eng.At(3500*sim.Microsecond, s.Stop)
	eng.RunUntil(sim.Second)
	if len(ser.Values) != 3 {
		t.Fatalf("samples after stop = %d, want 3", len(ser.Values))
	}
}

func TestSamplerMaxSamples(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, sim.Microsecond)
	s.MaxSamples = 7
	ser := s.Add("x", func() float64 { return 0 })
	s.Start()
	eng.RunUntil(sim.Second)
	if len(ser.Values) != 7 {
		t.Fatalf("samples = %d, want capped at 7", len(ser.Values))
	}
}

func TestSamplerCSV(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, sim.Millisecond)
	s.Add("a", func() float64 { return 1.5 })
	s.Add("b", func() float64 { return 2 })
	s.Start()
	eng.RunUntil(2 * sim.Millisecond)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "time_ms,a,b\n1.000,1.5,2\n2.000,1.5,2\n"
	if got != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestSamplerValidation(t *testing.T) {
	eng := sim.NewEngine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero interval did not panic")
			}
		}()
		NewSampler(eng, 0)
	}()
	s := NewSampler(eng, sim.Millisecond)
	s.Start()
	defer func() {
		if recover() == nil {
			t.Error("Add after Start did not panic")
		}
	}()
	s.Add("late", func() float64 { return 0 })
}

func TestSamplerEmptyCSV(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, sim.Millisecond)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "time_ms\n" {
		t.Errorf("empty CSV = %q", b.String())
	}
}

func TestSamplerSeriesAndLast(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler(eng, sim.Millisecond)
	a := s.Add("a", func() float64 { return 3 })
	s.Add("b", func() float64 { return 4 })
	s.Start()
	s.Start() // idempotent
	eng.RunUntil(3 * sim.Millisecond)
	all := s.series
	if len(all) != 2 || all[0].Name != "a" || all[1].Name != "b" {
		t.Fatalf("series = %v", all)
	}
	if len(a.Values) != 3 || a.Values[2] != 3 {
		t.Errorf("a = %v, want three samples of 3", a.Values)
	}
}

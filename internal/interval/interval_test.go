package interval

import (
	"math/rand"
	"testing"
)

func TestNewSetNormalizes(t *testing.T) {
	tests := []struct {
		name string
		in   []Interval
		want string
	}{
		{name: "empty", in: nil, want: "∅"},
		{name: "single", in: []Interval{{60, 120}}, want: "[60,120)"},
		{name: "zero length dropped", in: []Interval{{60, 60}}, want: "∅"},
		{name: "negative length dropped", in: []Interval{{120, 60}}, want: "∅"},
		{name: "merge overlapping", in: []Interval{{60, 120}, {90, 180}}, want: "[60,180)"},
		{name: "merge adjacent", in: []Interval{{60, 120}, {120, 180}}, want: "[60,180)"},
		{name: "keep disjoint sorted", in: []Interval{{600, 660}, {60, 120}}, want: "[60,120)∪[600,660)"},
		{name: "wrap splits", in: []Interval{{1400, 1500}}, want: "[0,60)∪[1400,1440)"},
		{name: "out of range start reduced", in: []Interval{{1500, 1560}}, want: "[60,120)"},
		{name: "negative start reduced", in: []Interval{{-40, 20}}, want: "[0,20)∪[1400,1440)"},
		{name: "full day clamps", in: []Interval{{0, 5000}}, want: "[0,1440)"},
		{name: "nested absorbed", in: []Interval{{100, 400}, {200, 300}}, want: "[100,400)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NewSet(tt.in...).String()
			if got != tt.want {
				t.Errorf("NewSet(%v) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestWindow(t *testing.T) {
	tests := []struct {
		name          string
		start, length int
		wantLen       int
		wantStr       string
	}{
		{name: "simple", start: 60, length: 120, wantLen: 120, wantStr: "[60,180)"},
		{name: "wrapping", start: 1380, length: 120, wantLen: 120, wantStr: "[0,60)∪[1380,1440)"},
		{name: "zero", start: 100, length: 0, wantLen: 0, wantStr: "∅"},
		{name: "negative", start: 100, length: -5, wantLen: 0, wantStr: "∅"},
		{name: "full day", start: 700, length: DayMinutes, wantLen: DayMinutes, wantStr: "[0,1440)"},
		{name: "over full day", start: 700, length: 2 * DayMinutes, wantLen: DayMinutes, wantStr: "[0,1440)"},
		{name: "negative start wraps", start: -30, length: 60, wantLen: 60, wantStr: "[0,30)∪[1410,1440)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := Window(tt.start, tt.length)
			if s.Len() != tt.wantLen {
				t.Errorf("Window(%d,%d).Len() = %d, want %d", tt.start, tt.length, s.Len(), tt.wantLen)
			}
			if s.String() != tt.wantStr {
				t.Errorf("Window(%d,%d) = %s, want %s", tt.start, tt.length, s, tt.wantStr)
			}
		})
	}
}

func TestWindowCentered(t *testing.T) {
	s := WindowCentered(720, 120) // noon ± 1h
	if got, want := s.String(), "[660,780)"; got != want {
		t.Errorf("WindowCentered(720,120) = %s, want %s", got, want)
	}
	wrap := WindowCentered(0, 120) // midnight ± 1h
	if got, want := wrap.String(), "[0,60)∪[1380,1440)"; got != want {
		t.Errorf("WindowCentered(0,120) = %s, want %s", got, want)
	}
}

// TestWindowNegativeStartEdges exercises starts far below zero: modular
// reduction must land every window on the same minutes as its in-range
// equivalent, no matter how many days below zero the start sits.
func TestWindowNegativeStartEdges(t *testing.T) {
	for _, start := range []int{-1, -DayMinutes, -DayMinutes - 1, -3*DayMinutes + 17} {
		got := Window(start, 60)
		want := Window(mod(start), 60)
		if !got.Equal(want) {
			t.Errorf("Window(%d,60) = %v, want %v", start, got, want)
		}
		if got.Len() != 60 {
			t.Errorf("Window(%d,60).Len() = %d, want 60", start, got.Len())
		}
	}
	// A negative start with a window long enough to wrap keeps full length.
	if got := Window(-30, 90); got.Len() != 90 || !got.Contains(0) || !got.Contains(1439) || got.Contains(60) {
		t.Errorf("Window(-30,90) = %v", got)
	}
}

// TestWindowCenteredOddLength pins the odd-length convention: the window is
// [center−length/2, center−length/2+length) with integer division, so the
// extra minute falls after the center.
func TestWindowCenteredOddLength(t *testing.T) {
	s := WindowCentered(720, 121)
	if got, want := s.String(), "[660,781)"; got != want {
		t.Errorf("WindowCentered(720,121) = %s, want %s", got, want)
	}
	if s.Len() != 121 {
		t.Errorf("Len() = %d, want 121", s.Len())
	}
	one := WindowCentered(100, 1) // length 1: exactly the center minute
	if got, want := one.String(), "[100,101)"; got != want {
		t.Errorf("WindowCentered(100,1) = %s, want %s", got, want)
	}
	// Odd length centered near midnight wraps and keeps its full measure.
	wrapOdd := WindowCentered(0, 61)
	if wrapOdd.Len() != 61 || !wrapOdd.Contains(0) || !wrapOdd.Contains(-30) || !wrapOdd.Contains(30) || wrapOdd.Contains(31) {
		t.Errorf("WindowCentered(0,61) = %v", wrapOdd)
	}
	// Negative center reduces modulo the day like Window's start does.
	if got, want := WindowCentered(-720, 120), WindowCentered(720, 120); !got.Equal(want) {
		t.Errorf("WindowCentered(-720,120) = %v, want %v", got, want)
	}
	if got := WindowCentered(300, -7); !got.IsEmpty() {
		t.Errorf("WindowCentered(300,-7) = %v, want empty", got)
	}
}

func TestContains(t *testing.T) {
	s := NewSet(Interval{60, 120}, Interval{600, 660})
	tests := []struct {
		m    int
		want bool
	}{
		{59, false}, {60, true}, {119, true}, {120, false},
		{599, false}, {600, true}, {659, true}, {660, false},
		{0, false}, {1439, false},
		{60 + DayMinutes, true}, // modular reduction
		{60 - DayMinutes, true}, // negative modular reduction
		{500 - DayMinutes, false},
	}
	for _, tt := range tests {
		if got := s.Contains(tt.m); got != tt.want {
			t.Errorf("Contains(%d) = %v, want %v", tt.m, got, tt.want)
		}
	}
}

func TestUnionIntersectSubtract(t *testing.T) {
	a := NewSet(Interval{0, 100}, Interval{200, 300})
	b := NewSet(Interval{50, 250})

	if got, want := a.Union(b).String(), "[0,300)"; got != want {
		t.Errorf("Union = %s, want %s", got, want)
	}
	if got, want := a.Intersect(b).String(), "[50,100)∪[200,250)"; got != want {
		t.Errorf("Intersect = %s, want %s", got, want)
	}
	if got, want := a.Subtract(b).String(), "[0,50)∪[250,300)"; got != want {
		t.Errorf("Subtract = %s, want %s", got, want)
	}
	if got, want := b.Subtract(a).String(), "[100,200)"; got != want {
		t.Errorf("Subtract reverse = %s, want %s", got, want)
	}
}

func TestUnionWithEmpty(t *testing.T) {
	a := NewSet(Interval{10, 20})
	if !a.Union(Empty).Equal(a) {
		t.Error("a ∪ ∅ should equal a")
	}
	if !Empty.Union(a).Equal(a) {
		t.Error("∅ ∪ a should equal a")
	}
	if !Empty.Union(Empty).IsEmpty() {
		t.Error("∅ ∪ ∅ should be empty")
	}
}

func TestUnionAll(t *testing.T) {
	sets := []Set{
		Window(0, 60),
		Window(30, 60),
		Window(120, 10),
	}
	got := UnionAll(sets...)
	if want := "[0,90)∪[120,130)"; got.String() != want {
		t.Errorf("UnionAll = %s, want %s", got, want)
	}
	if !UnionAll().IsEmpty() {
		t.Error("UnionAll() should be empty")
	}
}

func TestComplement(t *testing.T) {
	tests := []struct {
		name string
		s    Set
		want string
	}{
		{name: "empty", s: Empty, want: "[0,1440)"},
		{name: "full", s: FullDay(), want: "∅"},
		{name: "middle", s: Window(100, 100), want: "[0,100)∪[200,1440)"},
		{name: "at start", s: Window(0, 100), want: "[100,1440)"},
		{name: "at end", s: Window(1340, 100), want: "[0,1340)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.s.Complement().String(); got != tt.want {
				t.Errorf("Complement(%s) = %s, want %s", tt.s, got, tt.want)
			}
		})
	}
}

func TestOverlap(t *testing.T) {
	a := Window(0, 100)
	b := Window(50, 100)
	c := Window(200, 100)
	if !a.Overlaps(b) {
		t.Error("a should overlap b")
	}
	if a.Overlaps(c) {
		t.Error("a should not overlap c")
	}
	if got, want := a.OverlapLen(b), 50; got != want {
		t.Errorf("OverlapLen = %d, want %d", got, want)
	}
	if got := a.OverlapLen(c); got != 0 {
		t.Errorf("OverlapLen disjoint = %d, want 0", got)
	}
	// Adjacent intervals do not overlap (half-open semantics).
	d := Window(100, 50)
	if a.Overlaps(d) {
		t.Error("adjacent half-open intervals must not overlap")
	}
}

func TestMaxGap(t *testing.T) {
	tests := []struct {
		name    string
		s       Set
		wantGap int
		wantOK  bool
	}{
		{name: "empty", s: Empty, wantGap: 0, wantOK: false},
		{name: "full day", s: FullDay(), wantGap: 0, wantOK: true},
		// Single window of d minutes: gap = 1440-d (the paper's 24−d hours).
		{name: "single 2h window", s: Window(600, 120), wantGap: DayMinutes - 120, wantOK: true},
		{name: "single wrapping window", s: Window(1400, 120), wantGap: DayMinutes - 120, wantOK: true},
		// Two windows: the larger of the two gaps between them.
		{name: "two windows", s: UnionAll(Window(0, 60), Window(720, 60)), wantGap: 1440 - 60 - 720, wantOK: true},
		// Evenly spread sessions → small gap even though coverage is small.
		{
			name:    "four spread sessions",
			s:       UnionAll(Window(0, 20), Window(360, 20), Window(720, 20), Window(1080, 20)),
			wantGap: 340,
			wantOK:  true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gap, ok := tt.s.MaxGap()
			if ok != tt.wantOK || gap != tt.wantGap {
				t.Errorf("MaxGap(%s) = (%d,%v), want (%d,%v)", tt.s, gap, ok, tt.wantGap, tt.wantOK)
			}
		})
	}
}

func TestFractionAndLen(t *testing.T) {
	s := Window(0, 720)
	if got := s.Fraction(); got != 0.5 {
		t.Errorf("Fraction = %v, want 0.5", got)
	}
	if got := Empty.Fraction(); got != 0 {
		t.Errorf("empty Fraction = %v, want 0", got)
	}
	if got := FullDay().Fraction(); got != 1 {
		t.Errorf("full-day Fraction = %v, want 1", got)
	}
}

func TestIntervalsReturnsCopy(t *testing.T) {
	s := Window(10, 20)
	ivs := s.Intervals()
	ivs[0].Start = 999
	if s.String() != "[10,30)" {
		t.Error("mutating Intervals() result must not affect the set")
	}
}

func TestEqual(t *testing.T) {
	a := UnionAll(Window(0, 10), Window(100, 10))
	b := NewSet(Interval{100, 110}, Interval{0, 10})
	if !a.Equal(b) {
		t.Errorf("sets built differently should be equal: %s vs %s", a, b)
	}
	c := Window(0, 10)
	if a.Equal(c) {
		t.Error("different sets must not be equal")
	}
}

func TestRandomMinute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := UnionAll(Window(100, 10), Window(1000, 10))
	counts := map[int]int{}
	for i := 0; i < 2000; i++ {
		m, ok := s.RandomMinute(rng)
		if !ok {
			t.Fatal("non-empty set must yield a minute")
		}
		if !s.Contains(m) {
			t.Fatalf("RandomMinute returned %d outside %s", m, s)
		}
		counts[m]++
	}
	// Both windows must be sampled (uniformity smoke check).
	lo, hi := 0, 0
	for m, c := range counts {
		if m < 500 {
			lo += c
		} else {
			hi += c
		}
	}
	if lo == 0 || hi == 0 {
		t.Errorf("sampling missed a window: lo=%d hi=%d", lo, hi)
	}
	if _, ok := Empty.RandomMinute(rng); ok {
		t.Error("empty set must report !ok")
	}
}

package experiments

import (
	"testing"

	"repro/internal/clock"
)

// The experiment tests assert the paper's *shape* claims on reduced
// workloads: who wins, where, and that all systems agree on the result set.

func TestFig7Shape(t *testing.T) {
	res, err := Fig7(Fig7Config{RRows: 400, DistinctA: 100})
	if err != nil {
		t.Fatal(err)
	}
	stem, ij, stemProbes, ijProbes := res.Series[0], res.Series[1], res.Series[2], res.Series[3]

	if stem.Final() != ij.Final() {
		t.Fatalf("result counts differ: %v vs %v", stem.Final(), ij.Final())
	}
	// SteM leads at every quarter of the horizon (head-of-line blocking
	// removed).
	for i := 1; i <= 3; i++ {
		at := clock.Time(int64(res.End) * int64(i) / 4)
		if stem.At(at) < ij.At(at) {
			t.Errorf("at %v: SteM=%v < IndexJoin=%v", at, stem.At(at), ij.At(at))
		}
	}
	// Probe counts near-identical (within 5%).
	if d := stemProbes.Final() - ijProbes.Final(); d > ijProbes.Final()/20 || d < -ijProbes.Final()/20 {
		t.Errorf("probe counts diverge: %v vs %v", stemProbes.Final(), ijProbes.Final())
	}
	// Completion within 20% of each other ("about the same time overall").
	a, b := stem.End().Seconds(), ij.End().Seconds()
	if a > 1.2*b || b > 1.2*a {
		t.Errorf("completions diverge: %.1fs vs %.1fs", a, b)
	}
	// The index join curve is convex (parabolic): its first half produces
	// well under half its results.
	if half := ij.At(clock.Time(int64(ij.End()) / 2)); half > ij.Final()/2 {
		t.Errorf("index join is not parabolic: %v results by half-time of %v", half, ij.Final())
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(Fig8Config{Rows: 400})
	if err != nil {
		t.Fatal(err)
	}
	hy, ij, hj := res.Series[0], res.Series[1], res.Series[2]
	if hy.Final() != ij.Final() || hy.Final() != hj.Final() {
		t.Fatalf("result counts differ: %v %v %v", hy.Final(), ij.Final(), hj.Final())
	}
	// Early (first tenth): index join ahead of hash join; hybrid tracks the
	// leader within a factor.
	early := clock.Time(int64(res.End) / 10)
	if ij.At(early) <= hj.At(early) {
		t.Errorf("early: index=%v must lead hash=%v", ij.At(early), hj.At(early))
	}
	if hy.At(early) < ij.At(early)/2 {
		t.Errorf("early: hybrid=%v far behind index=%v", hy.At(early), ij.At(early))
	}
	// Overall: hash join beats index join handily; hybrid close to hash.
	if hj.End() >= ij.End() {
		t.Errorf("hash (%v) must complete before index (%v)", hj.End(), ij.End())
	}
	if hy.End().Seconds() > 1.3*hj.End().Seconds() {
		t.Errorf("hybrid completion %.1fs too far behind hash %.1fs", hy.End().Seconds(), hj.End().Seconds())
	}
}

func TestFig1Shape(t *testing.T) {
	res, err := Fig1(Fig1Config{Rows: 120})
	if err != nil {
		t.Fatal(err)
	}
	stems, joins, static := res.Series[0], res.Series[1], res.Series[2]
	if stems.Final() != joins.Final() || stems.Final() != static.Final() {
		t.Fatalf("architectures disagree: %v %v %v", stems.Final(), joins.Final(), static.Final())
	}
	// SteMs, free to use the scan AND index on T, must not lose to the
	// index-only plans.
	if stems.End() > static.End() {
		t.Errorf("SteMs (%v) slower than static plan (%v)", stems.End(), static.End())
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(Fig1Config{Rows: 120})
	if err != nil {
		t.Fatal(err)
	}
	stems, pipe := res.Series[0], res.Series[1]
	if stems.Final() != pipe.Final() {
		t.Fatalf("results differ: %v vs %v", stems.Final(), pipe.Final())
	}
	if len(res.Summary) < 3 {
		t.Error("summary missing")
	}
}

func TestCompetitiveShape(t *testing.T) {
	res, err := Competitive(CompetitiveConfig{Rows: 120, DistinctA: 30})
	if err != nil {
		t.Fatal(err)
	}
	both, fast, slow := res.Series[0], res.Series[1], res.Series[2]
	if both.Final() != fast.Final() || both.Final() != slow.Final() {
		t.Fatal("result counts differ")
	}
	// Competition must land much closer to fast-only than slow-only.
	if both.End().Seconds() > 2*fast.End().Seconds() {
		t.Errorf("competitive %.1fs too far from fast-only %.1fs", both.End().Seconds(), fast.End().Seconds())
	}
	if both.End().Seconds() > slow.End().Seconds()/2 {
		t.Errorf("competitive %.1fs not clearly better than slow-only %.1fs", both.End().Seconds(), slow.End().Seconds())
	}
}

func TestSpanningShape(t *testing.T) {
	res, err := Spanning(SpanningConfig{Rows: 60, StallAfter: 10, StallFor: 5 * clock.Second})
	if err != nil {
		t.Fatal(err)
	}
	stemOut, staticOut, stemRT, staticRT := res.Series[0], res.Series[1], res.Series[2], res.Series[3]
	if stemOut.Final() != staticOut.Final() {
		t.Fatal("result counts differ")
	}
	if stemRT.Final() == 0 {
		t.Error("SteMs produced no {R,T} partials despite the third join edge")
	}
	if staticRT.Final() != 0 {
		t.Error("the static spanning tree has no R–T edge; it must produce no RT partials")
	}
}

func TestReorderShape(t *testing.T) {
	res, err := Reorder(ReorderConfig{Rows: 600})
	if err != nil {
		t.Fatal(err)
	}
	adapt, fixed := res.Series[0], res.Series[1]
	if adapt.Final() != fixed.Final() {
		t.Fatal("result counts differ")
	}
}

func TestRenderProducesTable(t *testing.T) {
	res, err := Reorder(ReorderConfig{Rows: 100})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render(5)
	if len(out) < 100 {
		t.Errorf("render too short: %q", out)
	}
}

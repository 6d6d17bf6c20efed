package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"safeland/internal/core"
	"safeland/internal/faults"
	"safeland/internal/imaging"
	"safeland/internal/monitor"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {1, 50}, {39, 50}, // under forty samples: the median alone
		{40, 75}, // 10 beyond p75
		{99, 75}, // 9.9 beyond p90: not enough
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestColdLatenciesTakeEachFramesFastestServing(t *testing.T) {
	var recs []frameRec
	var base []float64
	for i := 0; i < coldScenes; i++ {
		ms := float64(i + 1)
		base = append(base, ms)
		for round := 0; round < coldRounds; round++ {
			slow := ms
			if (i+round)%3 == 0 {
				slow *= 10 // a burst of other load in one serving
			}
			recs = append(recs, frameRec{vehicle: -1, frame: i, round: round, ms: slow})
		}
		// Servings past the guaranteed rounds are left out.
		recs = append(recs, frameRec{vehicle: -1, frame: i, round: coldRounds, ms: 0.5})
	}
	lat, first := latencies("select-cold", recs)
	if got, want := percentile(lat, 90), percentile(base, 90); got != want || len(lat) != coldScenes {
		t.Errorf("select-cold: %d samples, p90 %v; want %d samples, p90 %v", len(lat), got, coldScenes, want)
	}
	if median(first) != median(base) {
		t.Errorf("select-cold first-frame median = %v, want %v", median(first), median(base))
	}
	lat, first = latencies("descent-chaos", recs)
	if len(lat) != len(recs) || len(first) != coldRounds+1 {
		t.Errorf("descent-chaos: %d call samples, %d first-frame samples; want %d and %d",
			len(lat), len(first), len(recs), coldRounds+1)
	}
}

func TestFrameRateIsTheMedianGroupRate(t *testing.T) {
	// Ten groups of rateGroup frames at 20 frames/s, then three groups at
	// 5 frames/s while the host is busy.
	var recs []frameRec
	var at time.Duration
	for g := 0; g < 13; g++ {
		step := 50 * time.Millisecond
		if g >= 10 {
			step = 200 * time.Millisecond
		}
		for k := 0; k < rateGroup; k++ {
			at += step
			recs = append(recs, frameRec{done: at})
		}
	}
	if got := frameRate(recs); math.Abs(got-20) > 1e-9 {
		t.Errorf("frameRate = %v, want 20", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	// statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
	if q1, q2, q3 := quartiles([]float64{5, 1, 9, 3, 7}); q1 != 2 || q2 != 5 || q3 != 8 {
		t.Fatalf("quartiles = %v %v %v, want 2 5 8", q1, q2, q3)
	}
	if p := percentile([]float64{3, 1, 2, 4}, 50); p != 2.5 {
		t.Fatalf("median = %v, want 2.5", p)
	}
}

// confirmedResponse builds a well-formed confirmed response over an all-
// grass prediction: one trial, a clean verdict, the zone in the frame.
func confirmedResponse() (served, contract) {
	const w, h = 64, 64
	pred := imaging.NewLabelMap(w, h)
	for i := range pred.Pix {
		pred.Pix[i] = imaging.LowVegetation
	}
	zone := core.Candidate{X0: 10, Y0: 12, SizePx: 20}
	v := monitor.Verdict{Confirmed: true, Flags: imaging.NewMap(20, 20)}
	v.Flags.Pix[0] = 1
	v.FlaggedFraction = 1.0 / 400
	res := core.Result{Confirmed: true, Zone: zone, State: core.Landing, CandidateCount: 3, Pred: pred,
		Trials: []core.Trial{{Candidate: zone, Verdict: v}}}
	rule := monitor.DefaultRule()
	rule.MaxFlaggedFraction = 0.25
	return served{res: res, pred: pred, w: w, h: h}, contract{rule: rule, maxTrials: 4}
}

func TestFigure1CheckerAcceptsWellFormed(t *testing.T) {
	s, c := confirmedResponse()
	if err := checkFigure1(s, c); err != nil {
		t.Fatalf("well-formed response rejected: %v", err)
	}
}

func TestFigure1CheckerRejectsDoctored(t *testing.T) {
	for _, tc := range []struct {
		name   string
		doctor func(s *served)
		want   string
	}{
		{"confirmed zone over a predicted road pixel", func(s *served) {
			s.pred.Set(15, 20, imaging.Road)
		}, "covers predicted"},
		{"degraded and confirmed", func(s *served) {
			s.degraded, s.cause = true, "shard-blackout"
		}, "degraded response is confirmed"},
		{"degraded without a cause", func(s *served) {
			s.res.Confirmed, s.res.State, s.res.Trials = false, core.Degraded, nil
			s.degraded = true
		}, "no cause"},
		{"more trials than MaxTrials", func(s *served) {
			t := s.res.Trials[0]
			t.Verdict.Confirmed = false
			s.res.Trials = append([]core.Trial{t, t, t, t}, s.res.Trials...)
		}, "exceed the budget"},
		{"confirmed without Landing", func(s *served) {
			s.res.State = core.Aborted
		}, "but state"},
		{"zone outside the frame", func(s *served) {
			s.res.Zone.X0 = 50
			s.res.Trials[0].Candidate.X0 = 50
		}, "outside"},
		{"flags that do not recount", func(s *served) {
			s.res.Trials[0].Verdict.Flags.Pix[1] = 1
		}, "recount"},
		{"confirming verdict over tolerance", func(s *served) {
			v := &s.res.Trials[0].Verdict
			for i := 0; i < 200; i++ {
				v.Flags.Pix[i] = 1
			}
			v.FlaggedFraction = 0.5
		}, "tolerance"},
		{"no landable majority", func(s *served) {
			for y := 12; y < 32; y++ {
				for x := 10; x < 30; x++ {
					s.pred.Set(x, y, imaging.Building)
				}
			}
		}, "landable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, c := confirmedResponse()
			tc.doctor(&s)
			err := checkFigure1(s, c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("checkFigure1 = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestPredictClassesOnHandBuiltPlan(t *testing.T) {
	plan := faults.NewInjector(1, faults.Rates{}).
		ScheduleFault(faults.ShardBlackout, "shard0", 2).
		ScheduleFault(faults.StemCorrupt, "uav-00", 0, 3, 5).
		ScheduleFault(faults.SelectorError, "uav-00", 1).
		ScheduleFault(faults.ReplicaStall, "uav-00", 6).
		ScheduleFault(faults.ShardBlackout, "shard1", 4)
	got := predictClasses(plan, "shard0", "uav-00", 8)
	want := []string{
		classClean,    // 0: stem corruption on a cold frame never fires
		classRetried,  // 1: selector error
		classDegraded, // 2: blackout of the vehicle's shard
		classClean,    // 3: cold again after the blackout, corruption cannot fire
		classClean,    // 4: another shard's blackout
		classRetried,  // 5: warm, stem corruption fires
		classRetried,  // 6: replica stall
		classClean,
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("predictClasses = %v, want %v", got, want)
	}
}

func TestOutcomeStringDistinguishesVerdictBits(t *testing.T) {
	a := outcome{trials: []trialSum{{frac: 0.1, max: 0.2}}}
	b := a
	b.trials = []trialSum{{frac: math.Nextafter(0.1, 1), max: 0.2}}
	if a.equal(b) {
		t.Fatal("outcomes differing in the last bit of a flagged fraction compare equal")
	}
}

func TestAgreeIsTwoSided(t *testing.T) {
	for _, c := range []struct {
		a, b   float64
		better string
		want   bool
	}{
		{100, 110, "lower", true},   // 10 % worse
		{100, 130, "lower", false},  // 30 % worse
		{100, 60, "lower", false},   // 40 % better is no agreement either
		{100, 60, "higher", false},  // 40 % worse
		{100, 140, "higher", false}, // 40 % better
		{100, 120, "higher", true},
	} {
		if got := agree(c.a, c.b, c.better, 0.25); got != c.want {
			t.Errorf("agree(%v, %v, %s) = %v, want %v", c.a, c.b, c.better, got, c.want)
		}
	}
}

func TestCountDisputed(t *testing.T) {
	rec := func(frame int, class string, confirmed, reused bool) frameRec {
		return frameRec{frame: frame, out: outcome{class: class, confirmed: confirmed, reused: reused}}
	}
	seq := [][]frameRec{
		{
			rec(0, classClean, true, false),
			rec(1, classClean, true, true),     // re-verified: reuse
			rec(2, classClean, false, false),   // disputed within the descent
			rec(3, classClean, true, false),    // no confirmed zone to dispute
			rec(4, classRetried, false, false), // a fault, not a dispute
			rec(5, classDegraded, false, false),
			rec(6, classClean, false, false), // cold after the degraded frame
			rec(7, classClean, true, false),
			rec(0, classClean, true, false), // next descent: the last zone disputed
		},
	}
	within, switched := countDisputed(seq)
	if within != 1 || switched != 1 {
		t.Fatalf("countDisputed = %d within, %d switched; want 1, 1", within, switched)
	}
}

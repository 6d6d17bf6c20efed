package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"safeland/internal/core"
	"safeland/internal/faults"
	"safeland/internal/imaging"
	"safeland/internal/monitor"
)

// contract is what the Figure 1 checker needs to know about the pipeline
// that served a response.
type contract struct {
	rule      monitor.Rule
	maxTrials int
}

// served is one response as the checker sees it: the result plus the
// serving metadata that decides which clauses apply.
type served struct {
	res      core.Result
	pred     *imaging.LabelMap // prediction the zone was chosen on
	w, h     int               // frame size
	degraded bool
	cause    string
}

// checkFigure1 recomputes the Figure 1 contract for one response:
// Confirmed holds exactly when the Decision Module reached Landing; a
// degraded answer is never confirmed and names its cause; trials stay
// within the budget; every trial's flags recount to its flagged fraction;
// and a confirmed zone lies inside the frame, covers no predicted busy-road
// pixel, is mostly landable in the prediction, and was confirmed by a
// verdict whose flagged fraction is within the rule's tolerance.
func checkFigure1(s served, c contract) error {
	r := s.res
	if r.Confirmed != (r.State == core.Landing) {
		return fmt.Errorf("confirmed=%v but state %v", r.Confirmed, r.State)
	}
	if s.degraded {
		if r.Confirmed || r.State != core.Degraded {
			return fmt.Errorf("degraded response is confirmed=%v state %v", r.Confirmed, r.State)
		}
		if s.cause == "" {
			return fmt.Errorf("degraded response carries no cause")
		}
		return nil
	}
	if r.State == core.Degraded {
		return fmt.Errorf("state %v on a response not marked degraded", r.State)
	}
	if len(r.Trials) > c.maxTrials {
		return fmt.Errorf("%d trials exceed the budget of %d", len(r.Trials), c.maxTrials)
	}
	for i, t := range r.Trials {
		if frac := flaggedFraction(t.Verdict.Flags); frac != t.Verdict.FlaggedFraction {
			return fmt.Errorf("trial %d: flags recount to %v, verdict says %v", i, frac, t.Verdict.FlaggedFraction)
		}
		if last := i == len(r.Trials)-1; t.Verdict.Confirmed && !(last && r.Confirmed) {
			return fmt.Errorf("trial %d confirmed but the selection went on", i)
		}
	}
	if !r.Confirmed {
		return nil
	}
	if len(r.Trials) == 0 {
		return fmt.Errorf("confirmed with no trial")
	}
	v := r.Trials[len(r.Trials)-1]
	if v.Candidate != r.Zone {
		return fmt.Errorf("confirming trial verified %+v, zone is %+v", v.Candidate, r.Zone)
	}
	if !v.Verdict.Confirmed || v.Verdict.FlaggedFraction > c.rule.MaxFlaggedFraction {
		return fmt.Errorf("confirming verdict flags %v > tolerance %v", v.Verdict.FlaggedFraction, c.rule.MaxFlaggedFraction)
	}
	z := r.Zone
	if z.SizePx < 1 || z.X0 < 0 || z.Y0 < 0 || z.X0+z.SizePx > s.w || z.Y0+z.SizePx > s.h {
		return fmt.Errorf("zone %+v outside the %dx%d frame", z, s.w, s.h)
	}
	if s.pred == nil || s.pred.W != s.w || s.pred.H != s.h {
		return fmt.Errorf("confirmed zone without a frame-sized prediction")
	}
	landable := 0
	for y := z.Y0; y < z.Y0+z.SizePx; y++ {
		for x := z.X0; x < z.X0+z.SizePx; x++ {
			c := s.pred.At(x, y)
			if c.BusyRoad() {
				return fmt.Errorf("zone %+v covers predicted %v at (%d,%d)", z, c, x, y)
			}
			if c == imaging.LowVegetation || c == imaging.Clutter {
				landable++
			}
		}
	}
	if 2*landable <= z.SizePx*z.SizePx {
		return fmt.Errorf("zone %+v is %d/%d landable, not a majority", z, landable, z.SizePx*z.SizePx)
	}
	return nil
}

// flaggedFraction recounts a verdict's flag map.
func flaggedFraction(m *imaging.Map) float64 {
	if m == nil || m.W*m.H == 0 {
		return math.NaN()
	}
	n := 0
	for _, p := range m.Pix {
		if p != 0 {
			n++
		}
	}
	return float64(n) / float64(m.W*m.H)
}

// Frame classes under chaos.
const (
	classClean    = "clean"
	classRetried  = "retried"
	classDegraded = "degraded"
)

// predictClasses derives, before serving, the class of each of a session's
// frames from the injector's plan. It mirrors the serving contract: a
// blackout of the vehicle's shard fails every attempt of the frame, so the
// frame degrades and the session restarts cold; a replica stall or
// selector error fails the first attempt only, so the frame is retried; a
// stem corruption fires only when the frame re-primes a carried stem, which
// needs the previous frame to have been served by the pipeline.
func predictClasses(plan *faults.Injector, shard, vehicleID string, frames int) []string {
	out := make([]string, frames)
	warm := false
	for n := range out {
		switch {
		case plan.Fire(faults.ShardBlackout, shard, n):
			out[n] = classDegraded
			warm = false
			continue
		case plan.Fire(faults.ReplicaStall, vehicleID, n),
			plan.Fire(faults.SelectorError, vehicleID, n),
			warm && plan.Fire(faults.StemCorrupt, vehicleID, n):
			out[n] = classRetried
		default:
			out[n] = classClean
		}
		warm = true
	}
	return out
}

// trialSum is the part of a trial the outcome digest and the parity checks
// compare.
type trialSum struct {
	x0, y0, size int
	confirmed    bool
	frac         float64
	max          float32
	flags        uint64
}

// outcome is the compact, comparable record of one served frame.
type outcome struct {
	class     string
	cause     string
	confirmed bool
	state     core.DMState
	zone      core.Candidate
	cands     int
	trials    []trialSum
	reused    bool
	changed   int
}

func summarize(r core.Result) outcome {
	o := outcome{confirmed: r.Confirmed, state: r.State, zone: r.Zone, cands: r.CandidateCount}
	for _, t := range r.Trials {
		o.trials = append(o.trials, summarizeVerdict(t.Candidate, t.Verdict))
	}
	return o
}

func summarizeVerdict(c core.Candidate, v monitor.Verdict) trialSum {
	return trialSum{x0: c.X0, y0: c.Y0, size: c.SizePx, confirmed: v.Confirmed,
		frac: v.FlaggedFraction, max: v.MaxScore, flags: hashFlags(v.Flags)}
}

func hashFlags(m *imaging.Map) uint64 {
	h := fnv.New64a()
	if m == nil {
		return 0
	}
	fmt.Fprintf(h, "%dx%d:", m.W, m.H)
	for _, p := range m.Pix {
		if p != 0 {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// String renders the outcome for the digest: class, decision, zone and
// every verdict with its exact bits.
func (o outcome) String() string {
	s := fmt.Sprintf("%s/%s c=%v s=%d z=(%d,%d,%d) n=%d r=%v ch=%d", o.class, o.cause, o.confirmed,
		o.state, o.zone.X0, o.zone.Y0, o.zone.SizePx, o.cands, o.reused, o.changed)
	for _, t := range o.trials {
		s += fmt.Sprintf(" [%d,%d,%d %v %x %x %x]", t.x0, t.y0, t.size, t.confirmed,
			math.Float64bits(t.frac), math.Float32bits(t.max), t.flags)
	}
	return s
}

func (o outcome) equal(p outcome) bool { return o.String() == p.String() }

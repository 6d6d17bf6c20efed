package main

import (
	"context"
	"fmt"
	"os"

	"safeland"
	"safeland/internal/core"
	"safeland/internal/imaging"
	"safeland/internal/monitor"
)

// Outside the timed phase, the checks recompute a fixed sample of the
// served work independently.
const (
	coldVerdictSample = 6 // select-cold frames whose first and last trial are recomputed
)

// fleetSample is the fixed set of vehicles whose frames the fleet checks
// recompute; vehicle 1 flies the disputing descents and vehicle 3 over
// sunset scenes.
var fleetSample = []int{0, 1, 3}

// checkRun verifies the served outcomes after the measured phase and
// returns the outcome digest.
func checkRun(w string, st *stack, cold []frameInput, fleet []vehicle, p *phase) (string, error) {
	digest := outcomeDigest(w, p.recs)
	if p.err != nil {
		return digest, p.err
	}
	if err := checkRounds(w, p.recs); err != nil {
		return digest, err
	}
	if w == "select-cold" {
		return digest, checkColdVerdicts(st, cold, p.recs)
	}
	if err := checkChaos(st, fleet, p.recs); err != nil {
		return digest, err
	}
	return digest, checkFleet(st, fleet, p.recs)
}

// checkRounds pins determinism inside the run: every select-cold round
// repeats the first. Fleet rounds differ by their fault coordinates; their
// classes are checked against the prediction and their outcomes against a
// sequential replay.
func checkRounds(w string, recs []frameRec) error {
	if w != "select-cold" {
		return nil
	}
	const ref = 0
	base := map[[2]int]outcome{}
	for _, r := range recs {
		if r.round == ref {
			base[[2]int{r.vehicle, r.frame}] = r.out
		}
	}
	for _, r := range recs {
		if r.round > ref {
			if b, ok := base[[2]int{r.vehicle, r.frame}]; !ok || !b.equal(r.out) {
				return fmt.Errorf("round %d vehicle %d frame %d differs from round %d", r.round, r.vehicle, r.frame, ref)
			}
		}
	}
	return nil
}

// recomputeVerdict verifies one crop independently of the frame context:
// Monte-Carlo statistics on the cropped image and the pixel rule, on a
// fresh replica.
func recomputeVerdict(sys *safeland.System, img *imaging.Image, c core.Candidate) (trialSum, error) {
	rep, err := sys.Replica()
	if err != nil {
		return trialSum{}, err
	}
	x0, y0, size := c.CropRect(img.W, img.H)
	pipe := rep.Pipeline
	stats, err := pipe.Monitor.MCStatsCtx(context.Background(), img.Crop(x0, y0, size, size))
	if err != nil {
		return trialSum{}, err
	}
	return summarizeVerdict(c, verdictFromStats(stats, pipe.Rule)), nil
}

// verdictFromStats applies the pixel rule to Monte-Carlo statistics the way
// the monitor's verdict is defined: the flag map, its flagged fraction
// against the tolerance, and the largest busy-road score.
func verdictFromStats(st monitor.Stats, rule monitor.Rule) monitor.Verdict {
	flags := rule.PixelFlags(st)
	frac := flaggedFraction(flags)
	return monitor.Verdict{
		Confirmed:       frac <= rule.MaxFlaggedFraction,
		FlaggedFraction: frac,
		MaxScore:        maxScore(st, rule),
		Flags:           flags,
	}
}

// maxScore is the largest µ + kσ over busy-road classes and pixels.
func maxScore(st monitor.Stats, rule monitor.Rule) float32 {
	_, c, h, w := st.Mean.Dims4()
	var best float32
	for _, cls := range imaging.BusyRoadClasses() {
		ci := int(cls)
		if ci >= c {
			continue
		}
		base := ci * h * w
		for i := 0; i < h*w; i++ {
			if s := st.Mean.Data[base+i] + rule.Sigmas*st.Std.Data[base+i]; s > best {
				best = s
			}
		}
	}
	return best
}

func checkColdVerdicts(st *stack, cold []frameInput, recs []frameRec) error {
	checked := 0
	for _, r := range recs {
		if r.round != 0 || len(r.out.trials) == 0 || checked == coldVerdictSample {
			continue
		}
		checked++
		for _, ti := range []int{0, len(r.out.trials) - 1} {
			t := r.out.trials[ti]
			cand := core.Candidate{X0: t.x0, Y0: t.y0, SizePx: t.size}
			got, err := recomputeVerdict(st.sys, cold[r.frame].img, cand)
			if err != nil {
				return err
			}
			if got != t {
				return fmt.Errorf("frame %d trial %d: served verdict %+v, independent recompute %+v", r.frame, ti, t, got)
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("no select-cold frame reached the monitor")
	}
	return nil
}

// checkFleet recomputes the sampled vehicles' first two rounds: every frame
// against a sequential single-client replay on a fresh shard with the same
// name and fault plan, reused frames against a fresh-context verdict, and
// the other frames served by the pipeline against a stateless Select on a
// fault-free engine.
func checkFleet(st *stack, fleet []vehicle, recs []frameRec) error {
	eng, err := safeland.NewEngine(safeland.WithSystem(st.sys), safeland.WithWorkers(1))
	if err != nil {
		return err
	}
	defer eng.Close()
	byKey := map[[3]int]outcome{}
	for _, r := range recs {
		byKey[[3]int{r.round, r.vehicle, r.frame}] = r.out
	}
	for _, v := range fleetSample {
		if err := replayVehicle(st, eng, fleet, v, byKey); err != nil {
			return fmt.Errorf("vehicle %d: %w", v, err)
		}
	}
	return nil
}

// replayVehicle flies one vehicle's first two descents alone and compares
// every frame with the two-client run and with its stateless equivalent.
func replayVehicle(st *stack, eng *safeland.Engine, fleet []vehicle, v int, byKey map[[3]int]outcome) error {
	ctx := context.Background()
	shard, err := st.chaosShard(st.router.Engine(fleet[v].id).Name(), 1)
	if err != nil {
		return err
	}
	defer shard.Close()
	replay, err := shard.NewSession(fleet[v].id)
	if err != nil {
		return err
	}
	defer replay.Close()
	for round := 0; round < 2; round++ {
		for k := 0; k < descentFrames; k++ {
			img := fleet[v].frame(round, k)
			o, ok := byKey[[3]int{round, v, k}]
			if !ok {
				return fmt.Errorf("round %d frame %d was not served", round, k)
			}
			resp := replay.Advance(ctx, safeland.SelectRequest{Image: img, MPP: fleet[v].mpp})
			if resp.Err != nil {
				return resp.Err
			}
			seq := summarize(resp.Result)
			seq.class = responseClass(resp.Retried, resp.Degraded)
			seq.cause = resp.DegradedCause
			seq.reused, seq.changed = resp.Reused, resp.Changed
			if !seq.equal(o) {
				return fmt.Errorf("round %d frame %d: sequential replay %v, two-client run %v", round, k, seq, o)
			}
			if err := checkFrameParity(ctx, st.sys, eng, img, fleet[v].mpp, o); err != nil {
				return fmt.Errorf("round %d frame %d: %w", round, k, err)
			}
		}
	}
	return nil
}

// checkFrameParity compares one session frame with its stateless
// equivalent: a reused frame's single verdict with a fresh frame context's
// verdict on the same crop, any other frame the pipeline served with an
// Engine.Select. A degraded frame has no pipeline result to compare.
func checkFrameParity(ctx context.Context, sys *safeland.System, eng *safeland.Engine, img *imaging.Image, mpp float64, o outcome) error {
	if o.class == classDegraded {
		return nil
	}
	if o.reused {
		rep, err := sys.Replica()
		if err != nil {
			return err
		}
		fc := rep.Pipeline.Monitor.NewFrameContext(img)
		defer fc.Close()
		x0, y0, size := o.zone.CropRect(img.W, img.H)
		v, err := fc.VerifyZoneCtx(ctx, x0, y0, size, size, rep.Pipeline.Rule)
		if err != nil {
			return err
		}
		if len(o.trials) != 1 || summarizeVerdict(o.zone, v) != o.trials[0] {
			return fmt.Errorf("reused verdict %v differs from a fresh-context verdict %+v", o.trials, summarizeVerdict(o.zone, v))
		}
		return nil
	}
	resp := eng.Select(ctx, safeland.SelectRequest{Image: img, MPP: mpp})
	if resp.Err != nil {
		return resp.Err
	}
	sel := summarize(resp.Result)
	want := o
	want.class, want.cause, want.reused, want.changed = "", "", false, 0
	if !sel.equal(want) {
		return fmt.Errorf("session frame %v differs from a stateless Select %v", want, sel)
	}
	return nil
}

// checkChaos compares every frame's class with the class predicted from the
// fault plan and the router's placement.
func checkChaos(st *stack, fleet []vehicle, recs []frameRec) error {
	perShard := map[string]int{}
	preds := make([][]string, len(fleet))
	frames := 0
	for _, r := range recs {
		frames = max(frames, r.round*descentFrames+r.frame+1)
	}
	for v := range fleet {
		shard := st.router.Engine(fleet[v].id).Name()
		perShard[shard]++
		preds[v] = predictClasses(st.inj, shard, fleet[v].id, frames)
	}
	for i, s := range st.router.Stats() {
		if name := fmt.Sprintf("shard%d", i); int(s.Sessions) != perShard[name] {
			return fmt.Errorf("%s holds %d sessions, placement predicts %d", name, s.Sessions, perShard[name])
		}
	}
	counts := map[string]int{}
	seq := make([][]frameRec, len(fleet))
	for _, r := range recs {
		want := preds[r.vehicle][r.round*descentFrames+r.frame]
		if r.out.class != want {
			return fmt.Errorf("vehicle %d round %d frame %d served %s, plan predicts %s", r.vehicle, r.round, r.frame, r.out.class, want)
		}
		counts[want]++
		seq[r.vehicle] = append(seq[r.vehicle], r)
	}
	if counts[classDegraded] == 0 || counts[classRetried] == 0 || counts[classClean] == 0 {
		return fmt.Errorf("chaos run did not exercise every class: %v", counts)
	}
	within, switched := countDisputed(seq)
	fmt.Fprintf(os.Stderr, "chaos classes %v, disputed frames %d within a descent, %d on a new descent\n",
		counts, within, switched)
	if within+switched == 0 {
		return fmt.Errorf("no warm frame disputed its confirmed zone")
	}
	return nil
}

// countDisputed counts the frames that took the session's disputed branch:
// a clean frame, after a frame the pipeline served with a confirmed zone,
// that was not served by reuse. within counts those past the first frame of
// a descent (the disputing vehicles' perturbation reached the zone);
// switched those on the first frame of a vehicle's next descent, where the
// last zone is re-verified over a new scene. seq holds each vehicle's
// records in serving order.
func countDisputed(seq [][]frameRec) (within, switched int) {
	for _, rs := range seq {
		for i := 1; i < len(rs); i++ {
			prev, cur := rs[i-1].out, rs[i]
			if prev.class == classDegraded || !prev.confirmed || cur.out.class != classClean || cur.out.reused {
				continue
			}
			if cur.frame > 0 {
				within++
			} else {
				switched++
			}
		}
	}
	return within, switched
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"image"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"safeland"
	"safeland/internal/baseline"
	"safeland/internal/core"
	"safeland/internal/imaging"
	"safeland/internal/monitor"
	"safeland/internal/nn"
	"safeland/internal/segment"
	"safeland/internal/uav"
	"safeland/internal/urban"
)

// coldTraceFrames is how many select-cold frames the traced run rebuilds
// layer by layer; fleet workloads rebuild the fleetSample vehicles' first
// two rounds.
const coldTraceFrames = 8

// perLayer lists every per-layer metric in BENCHMARK.json order with its
// unit. A metric whose layer the workload never calls reads 0 (see the
// README's table of which metric each workload moves).
var perLayer = []struct{ name, unit string }{
	{"setup.train_data_ms", "ms"}, {"setup.train_ms", "ms"}, {"setup.train_step_ms", "ms"},
	{"setup.engine_ms", "ms"}, {"setup.sessions_ms", "ms"},
	{"engine.queue_ms_p50", "ms"}, {"engine.queue_ms_tail", "ms"}, {"engine.compute_ms_p50", "ms"},
	{"session.reused_ms_p50", "ms"}, {"session.full_ms_p50", "ms"},
	{"session.reuse_ratio", "ratio"}, {"session.changed_regions_per_frame", "count"},
	{"router.max_shard_share", "ratio"},
	{"ft.retried_ms_p50", "ms"}, {"ft.degraded_ms_p50", "ms"}, {"ft.fallback_ms", "ms"},
	{"core.candidates_ms", "ms"}, {"core.candidates_per_frame", "count"},
	{"core.relaxations_per_frame", "count"}, {"core.trials_per_frame", "count"},
	{"monitor.predict_ms_p50", "ms"}, {"monitor.verdict_ms_p50", "ms"}, {"monitor.advance_ms_p50", "ms"},
	{"monitor.cached_crop_ratio", "ratio"},
	{"nn.stem_prime_ms", "ms"}, {"nn.reprime_ms", "ms"}, {"nn.crop_stem_ms", "ms"},
	{"nn.crop.dropout_ms", "ms"}, {"nn.crop.branch1_conv_ms", "ms"}, {"nn.crop.branch2_conv_ms", "ms"},
	{"nn.crop.branch4_conv_ms", "ms"}, {"nn.crop.branch_bn_ms", "ms"}, {"nn.crop.relu_ms", "ms"},
	{"nn.crop.concat_ms", "ms"}, {"nn.crop.head_conv_ms", "ms"}, {"nn.crop.upsample_ms", "ms"},
	{"nn.crop.softmax_ms", "ms"},
	{"nn.frame.stem_conv_ms", "ms"}, {"nn.frame.branch1_conv_ms", "ms"}, {"nn.frame.branch2_conv_ms", "ms"},
	{"nn.frame.branch4_conv_ms", "ms"}, {"nn.frame.head_conv_ms", "ms"},
	{"nn.conv_gmacs_per_frame", "count"}, {"nn.arena_reuses_per_frame", "count"},
	{"runtime.gc_ms_per_frame", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// span is one timed call into a layer. Spans of one traced frame share
// its frame id; group numbers the unit a layer metric aggregates over (a
// Monte-Carlo sample, a frame pass).
type span struct {
	Frame  int     `json:"frame"`
	Group  int     `json:"group"`
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory; they are written when the run ends.
type tracer struct {
	t0    time.Time
	frame int
	group int
	spans []span
	macs  map[int]float64 // conv multiply-accumulates per frame
}

func newTracer() *tracer { return &tracer{t0: time.Now(), macs: map[int]float64{}} }

func (tr *tracer) ms(t time.Time) float64 { return float64(t.Sub(tr.t0)) / float64(time.Millisecond) }

// record closes a span that started at start.
func (tr *tracer) record(name, parent string, start time.Time) float64 {
	end := time.Now()
	tr.spans = append(tr.spans, span{Frame: tr.frame, Group: tr.group, Name: name, Parent: parent,
		Start: tr.ms(start), End: tr.ms(end)})
	return float64(end.Sub(start)) / float64(time.Millisecond)
}

// perGroup sums each group's spans of one name and returns the sums.
func (tr *tracer) perGroup(name string) []float64 {
	sums := map[[2]int]float64{}
	var keys [][2]int
	for _, s := range tr.spans {
		if s.Name != name {
			continue
		}
		k := [2]int{s.Frame, s.Group}
		if _, ok := sums[k]; !ok {
			keys = append(keys, k)
		}
		sums[k] += s.End - s.Start
	}
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		out = append(out, sums[k])
	}
	return out
}

// write stores the spans as JSON lines under the build directory.
func (tr *tracer) write(w string, seed int64) error {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", w, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSetup rebuilds NewSystem from its stages, timing each, checks the
// staged model against NewSystem's, then builds the serving layers exactly
// as the end-to-end run does.
func tracedSetup(tr *tracer, w string, seed int64, fleet []vehicle, m map[string]float64) (*stack, error) {
	o := trainOptions
	ucfg := urban.DefaultConfig()
	ucfg.W, ucfg.H = o.SceneSize, o.SceneSize
	t := time.Now()
	scenes := urban.GenerateSet(ucfg, urban.DefaultConditions(), o.TrainScenes, o.Seed)
	m["setup.train_data_ms"] = tr.record("setup.train_data", "setup", t)

	mcfg := segment.DefaultConfig()
	mcfg.Seed = o.Seed
	model := segment.New(mcfg)
	tcfg := segment.DefaultTrainConfig()
	tcfg.Steps = o.TrainSteps
	tcfg.Seed = o.Seed + 1
	t = time.Now()
	segment.Train(model, scenes, tcfg)
	m["setup.train_ms"] = tr.record("setup.train", "setup", t)
	m["setup.train_step_ms"] = m["setup.train_ms"] / float64(o.TrainSteps)
	pipe := core.NewPipeline(model, o.Seed+2)
	pipe.Monitor.Samples = o.MCSamples
	sys := &safeland.System{Pipeline: pipe, Spec: uav.MediDelivery()}

	// The staged rebuild must be the model NewSystem trains.
	ref := safeland.NewSystem(trainOptions)
	refParams := ref.Pipeline.Model.Net.Params()
	for i, p := range model.Net.Params() {
		for j, v := range p.Value.Data {
			if math.Float32bits(v) != math.Float32bits(refParams[i].Value.Data[j]) {
				return nil, fmt.Errorf("traced set-up: parameter %s differs from NewSystem's", p.Name)
			}
		}
	}

	t = time.Now()
	return serveStack(w, seed, sys, fleet, func(stage string) {
		m[stage+"_ms"] = tr.record(stage, "setup", t)
		t = time.Now()
	})
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runTraced is the traced run: a staged set-up, the workload's program
// phase (serving metrics from the responses), then a layer-by-layer
// rebuild of a fixed sample of frames, checked against the program's own
// results.
func runTraced(w string, seed int64, dur time.Duration) (result, error) {
	var cold []frameInput
	var fleet []vehicle
	if w == "select-cold" {
		cold = coldInputs(seed)
	} else {
		fleet = fleetInputs(seed)
	}
	tr := newTracer()
	m := map[string]float64{}
	st, err := tracedSetup(tr, w, seed, fleet, m)
	if err != nil {
		return result{}, err
	}
	defer st.close()

	gc0 := gcCPUSeconds()
	p := measure(w, st, cold, fleet, dur, minSamplesFor(w))
	checkErr := p.err
	servingMetrics(w, st, p, m)
	m["runtime.gc_ms_per_frame"] = (gcCPUSeconds() - gc0) * 1000 / float64(len(p.recs))

	// The degraded fallback a Scene-carrying request would take, on the
	// workload's first (in-distribution) scene.
	scene := generate(false, coldSceneSeed(seed, 0))
	if w != "select-cold" {
		scene = generate(false, fleetSceneSeed(seed, 0, 0))
	}
	zonePx := int(math.Ceil(st.sys.Pipeline.Zones.ZoneSizeM / scene.MPP))
	t := time.Now()
	if _, ok := (baseline.Flatness{}).Select(scene, zonePx); !ok {
		return result{}, fmt.Errorf("flatness fallback found no zone")
	}
	m["ft.fallback_ms"] = tr.record("ft.fallback", "ft", t)

	rb, err := newRebuilder(st.sys, tr)
	if err != nil {
		return result{}, err
	}
	if checkErr == nil && w == "select-cold" {
		for i := 0; i < coldTraceFrames && checkErr == nil; i++ {
			tr.frame = i
			if err := rb.coldFrame(st.eng, cold[i]); err != nil {
				checkErr = fmt.Errorf("traced frame %d: %w", i, err)
			}
		}
	} else if checkErr == nil {
		checkErr = rb.fleetFrames(st.sys, fleet)
	}
	rb.metrics(m)
	if err := tr.write(w, seed); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: traced run check failed:", checkErr)
	}
	res := result{Correct: checkErr == nil, Attempted: max(rb.frames, 1), Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{orZero(m[pl.name]), pl.unit}
	}
	return res, nil
}

// servingMetrics reads the engine, session, router and fault-tolerance
// metrics off the program phase's responses.
func servingMetrics(w string, st *stack, p *phase, m map[string]float64) {
	var queued, compute, reused, full, retried, degraded []float64
	warm, reuses, changed := 0, 0, 0
	for _, r := range p.recs {
		queued = append(queued, float64(r.queued)/float64(time.Millisecond))
		compute = append(compute, float64(r.elapsed)/float64(time.Millisecond))
		if w == "select-cold" {
			continue
		}
		if r.out.reused {
			reused = append(reused, r.ms)
			reuses++
		} else {
			full = append(full, r.ms)
		}
		if r.round > 0 || r.frame > 0 {
			warm++
		}
		changed += r.out.changed
		switch r.out.class {
		case classRetried:
			retried = append(retried, r.ms)
		case classDegraded:
			degraded = append(degraded, r.ms)
		}
	}
	m["engine.queue_ms_p50"] = median(queued)
	m["engine.queue_ms_tail"] = percentile(queued, tailFor(w))
	m["engine.compute_ms_p50"] = median(compute)
	m["router.max_shard_share"] = 1
	if w == "select-cold" {
		return
	}
	m["session.reused_ms_p50"] = orZero(median(reused))
	m["session.full_ms_p50"] = orZero(median(full))
	m["session.reuse_ratio"] = float64(reuses) / float64(warm)
	m["session.changed_regions_per_frame"] = float64(changed) / float64(len(p.recs))
	m["ft.retried_ms_p50"] = orZero(median(retried))
	m["ft.degraded_ms_p50"] = orZero(median(degraded))
	total, most := int64(0), int64(0)
	for _, s := range st.router.Stats() {
		total += s.Frames
		if s.Frames > most {
			most = s.Frames
		}
	}
	m["router.max_shard_share"] = float64(most) / float64(total)
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// rebuilder re-runs frames layer by layer. Its monitor-level half calls the
// same public steps core.Pipeline.SelectInFrame and Session.Advance call,
// in their order, on its own replica; its nn-level half walks the network
// layer by layer on a second replica.
type rebuilder struct {
	tr *tracer

	// monitor level
	pipe    *core.Pipeline
	fc      *monitor.FrameContext
	prevImg *imaging.Image
	prev    core.Result
	hasPrev bool

	// nn level
	npipe  *core.Pipeline
	prefix nn.Layer
	suffix nn.Layer
	cache  *nn.StemCache
	in     *nn.Tensor

	frames        int
	programMs     float64
	tracedMs      float64
	cached, crops int
	reuses        int
	candCounts    []float64
	relaxations   []float64
	trials        []float64
}

func newRebuilder(sys *safeland.System, tr *tracer) (*rebuilder, error) {
	a, err := sys.Replica()
	if err != nil {
		return nil, err
	}
	b, err := sys.Replica()
	if err != nil {
		return nil, err
	}
	rb := &rebuilder{tr: tr, pipe: a.Pipeline, npipe: b.Pipeline}
	var ok bool
	if rb.prefix, rb.suffix, ok = nn.SplitAtFirstDropout(b.Pipeline.Model.Net); !ok {
		return nil, fmt.Errorf("model has no dropout split")
	}
	if rb.cache, ok = nn.NewStemCache(rb.prefix, b.Pipeline.Model.Scratch()); !ok {
		return nil, fmt.Errorf("model prefix is not stem-cacheable")
	}
	return rb, nil
}

// reset drops the carried state so the next frame starts cold.
func (rb *rebuilder) reset() {
	if rb.fc != nil {
		rb.fc.Close()
		rb.fc = nil
	}
	rb.hasPrev = false
	rb.cache.Release()
	if rb.in != nil {
		rb.npipe.Model.Scratch().Put(rb.in)
		rb.in = nil
	}
}

// pair runs the program's call and the traced rebuild of the same frame,
// alternating which goes first so that warm caches favour neither side of
// the tracing-overhead ratio.
func (rb *rebuilder) pair(program, rebuild func() error) error {
	first, second := program, rebuild
	if rb.frames%2 == 1 {
		first, second = rebuild, program
	}
	if err := first(); err != nil {
		return err
	}
	return second()
}

// coldFrame traces one stateless selection.
func (rb *rebuilder) coldFrame(eng *safeland.Engine, in frameInput) error {
	ctx := context.Background()
	var resp safeland.SelectResponse
	var got core.Result
	err := rb.pair(func() error {
		t := time.Now()
		resp = eng.Select(ctx, safeland.SelectRequest{Image: in.img, MPP: in.mpp})
		rb.programMs += float64(time.Since(t)) / float64(time.Millisecond)
		return resp.Err
	}, func() error {
		rb.reset()
		reuse0 := rb.pipe.Model.Scratch().Reuses()
		t := time.Now()
		fc := rb.pipe.Monitor.NewFrameContext(in.img)
		var err error
		got, err = rb.selectInFrame(ctx, fc, in.mpp)
		rb.cached += fc.CachedCrops
		rb.crops += fc.CachedCrops + fc.FallbackCrops
		fc.Close()
		rb.tracedMs += rb.tr.record("frame", "", t)
		rb.reuses += rb.pipe.Model.Scratch().Reuses() - reuse0
		return err
	})
	if err != nil {
		return err
	}
	if want := summarize(resp.Result); !summarize(got).equal(want) {
		return fmt.Errorf("composed result %v differs from the program's %v", summarize(got), want)
	}
	rb.frames++
	return rb.nnFrame(ctx, in.img, nil, true, resp.Result)
}

// selectInFrame composes core.Pipeline.SelectInFrame from its steps.
func (rb *rebuilder) selectInFrame(ctx context.Context, fc *monitor.FrameContext, mpp float64) (core.Result, error) {
	img := fc.Image()
	t := time.Now()
	pred, err := fc.PredictCtx(ctx)
	rb.tr.record("monitor.predict", "frame", t)
	if err != nil {
		return core.Result{}, err
	}
	cfg := rb.pipe.Zones
	zones := cfg
	var cands []core.Candidate
	t = time.Now()
	calls := 0
	for _, scale := range []float64{1, 0.66, 0.4, 0.2} {
		zones.BufferM = cfg.BufferM * scale
		if zones.BufferM < zones.ZoneSizeM/4 {
			zones.BufferM = zones.ZoneSizeM / 4
		}
		calls++
		if cands = core.Candidates(pred, mpp, zones); len(cands) > 0 {
			break
		}
	}
	rb.tr.record("core.candidates", "frame", t)
	rb.candCounts = append(rb.candCounts, float64(len(cands)))
	rb.relaxations = append(rb.relaxations, float64(calls-1))
	res := core.Result{Pred: pred, CandidateCount: len(cands), UsedBufferM: zones.BufferM}
	dm := core.NewDecisionModule(rb.pipe.MaxTrials)
	defer func() { rb.trials = append(rb.trials, float64(len(res.Trials))) }()
	for _, cand := range cands {
		x0, y0, size := cand.CropRect(img.W, img.H)
		t = time.Now()
		v, err := fc.VerifyZoneCtx(ctx, x0, y0, size, size, rb.pipe.Rule)
		rb.tr.record("monitor.verdict", "frame", t)
		if err != nil {
			return res, err
		}
		res.Trials = append(res.Trials, core.Trial{Candidate: cand, Verdict: v})
		switch dm.Offer(v) {
		case core.Landing:
			res.Confirmed, res.Zone, res.State = true, cand, core.Landing
			return res, nil
		case core.Aborted:
			res.State = core.Aborted
			return res, nil
		}
	}
	res.State = dm.Exhausted()
	return res, nil
}

// fleetFrames traces the sampled vehicles' first two rounds on a fault-free
// engine: each frame is served by a session (the program) and rebuilt.
func (rb *rebuilder) fleetFrames(sys *safeland.System, fleet []vehicle) error {
	ctx := context.Background()
	eng, err := safeland.NewEngine(safeland.WithSystem(sys), safeland.WithWorkers(1))
	if err != nil {
		return err
	}
	defer eng.Close()
	id := 0
	for _, v := range fleetSample {
		sess, err := eng.NewSession(fleet[v].id)
		if err != nil {
			return err
		}
		rb.reset()
		for round := 0; round < 2; round++ {
			for k := 0; k < descentFrames; k++ {
				img := fleet[v].frame(round, k)
				rb.tr.frame = id
				id++
				if err := rb.sessionFrame(ctx, sess, img, fleet[v].mpp); err != nil {
					sess.Close()
					return fmt.Errorf("vehicle %d round %d frame %d: %w", v, round, k, err)
				}
			}
		}
		sess.Close()
	}
	rb.reset()
	return nil
}

// sessionFrame serves one frame through the program's session and
// composes Session.Advance's temporal path from its steps.
func (rb *rebuilder) sessionFrame(ctx context.Context, sess *safeland.Session, img *imaging.Image, mpp float64) error {
	var resp safeland.SessionResponse
	var got core.Result
	var changed []image.Rectangle
	warm, reused := false, false
	err := rb.pair(func() error {
		t := time.Now()
		resp = sess.Advance(ctx, safeland.SelectRequest{Image: img, MPP: mpp})
		rb.programMs += float64(time.Since(t)) / float64(time.Millisecond)
		return resp.Err
	}, func() (err error) {
		reuse0 := rb.pipe.Model.Scratch().Reuses()
		t := time.Now()
		warm = rb.fc != nil && rb.hasPrev && rb.prevImg.W == img.W && rb.prevImg.H == img.H
		cached0, crops0 := 0, 0
		if warm {
			cached0, crops0 = rb.fc.CachedCrops, rb.fc.CachedCrops+rb.fc.FallbackCrops
		}
		got, changed, reused, err = rb.advance(ctx, img, mpp, warm)
		rb.tracedMs += rb.tr.record("frame", "", t)
		rb.reuses += rb.pipe.Model.Scratch().Reuses() - reuse0
		rb.cached += rb.fc.CachedCrops - cached0
		rb.crops += rb.fc.CachedCrops + rb.fc.FallbackCrops - crops0
		return err
	})
	if err != nil {
		return err
	}
	o := summarize(got)
	o.reused, o.changed = reused, len(changed)
	want := summarize(resp.Result)
	want.reused, want.changed = resp.Reused, resp.Changed
	if !o.equal(want) {
		return fmt.Errorf("composed result %v differs from the program's %v", o, want)
	}
	rb.prevImg, rb.prev, rb.hasPrev = img, got, true
	rb.frames++
	return rb.nnFrame(ctx, img, changed, !warm, resp.Result)
}

// advance composes one Session.Advance: a cold frame opens a new frame
// context and runs the full selection; a warm one diffs against the last
// frame, re-primes the changed tiles, re-verifies the last confirmed zone
// and falls back to the full selection when it is disputed.
func (rb *rebuilder) advance(ctx context.Context, img *imaging.Image, mpp float64, warm bool) (core.Result, []image.Rectangle, bool, error) {
	if !warm {
		if rb.fc != nil {
			rb.fc.Close()
		}
		rb.fc = rb.pipe.Monitor.NewFrameContext(img)
		res, err := rb.selectInFrame(ctx, rb.fc, mpp)
		return res, nil, false, err
	}
	changed := diffFrames(rb.prevImg, img, safeland.DefaultDiffTile)
	t := time.Now()
	err := rb.fc.Advance(ctx, img, changed)
	rb.tr.record("monitor.advance", "frame", t)
	if err != nil {
		return core.Result{}, changed, false, err
	}
	if rb.prev.Confirmed {
		x0, y0, size := rb.prev.Zone.CropRect(img.W, img.H)
		t = time.Now()
		v, err := rb.fc.VerifyZoneCtx(ctx, x0, y0, size, size, rb.pipe.Rule)
		rb.tr.record("monitor.verdict", "frame", t)
		if err != nil {
			return core.Result{}, changed, false, err
		}
		if v.Confirmed {
			return core.Result{Confirmed: true, Zone: rb.prev.Zone, CandidateCount: 1, State: core.Landing,
				Trials: []core.Trial{{Candidate: rb.prev.Zone, Verdict: v}}, UsedBufferM: rb.prev.UsedBufferM}, changed, true, nil
		}
	}
	res, err := rb.selectInFrame(ctx, rb.fc, mpp)
	return res, changed, false, err
}

// diffFrames mirrors the session's frame diff: tile-aligned rectangles,
// horizontally adjacent changed tiles merged per tile row.
func diffFrames(prev, next *imaging.Image, tile int) []image.Rectangle {
	var out []image.Rectangle
	for y0 := 0; y0 < next.H; y0 += tile {
		y1 := min(y0+tile, next.H)
		run := -1
		for x0 := 0; x0 < next.W; x0 += tile {
			x1 := min(x0+tile, next.W)
			if tileChanged(prev, next, x0, y0, x1, y1) {
				if run < 0 {
					run = x0
				}
			} else if run >= 0 {
				out = append(out, image.Rect(run, y0, x0, y1))
				run = -1
			}
		}
		if run >= 0 {
			out = append(out, image.Rect(run, y0, next.W, y1))
		}
	}
	return out
}

func tileChanged(prev, next *imaging.Image, x0, y0, x1, y1 int) bool {
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			if prev.Pix[y*prev.W+x] != next.Pix[y*next.W+x] {
				return true
			}
		}
	}
	return false
}

// nnFrame re-runs one frame's network work layer by layer on the second
// replica: prime (cold) or re-prime (warm) the frame stem, the
// deterministic full-frame pass when the program segmented the frame, and
// every Monte-Carlo verdict the program's result records.
func (rb *rebuilder) nnFrame(ctx context.Context, img *imaging.Image, changed []image.Rectangle, cold bool, want core.Result) error {
	sc := rb.npipe.Model.Scratch()
	tr := rb.tr
	tr.group = 0
	if cold {
		rb.cache.Release()
		if rb.in != nil {
			sc.Put(rb.in)
		}
		rb.in = segment.ToTensorScratch(img, sc)
		t := time.Now()
		if err := rb.cache.Prime(ctx, rb.in); err != nil {
			return err
		}
		tr.record("nn.stem_prime", "frame", t)
		walked := rb.walk(rb.prefix, rb.in, "nn.frame.")
		if !sameTensor(walked, rb.cache.Stem()) {
			return fmt.Errorf("layer walk of the prefix differs from the primed stem")
		}
		sc.Put(walked)
	} else {
		for _, r := range changed {
			r = r.Intersect(image.Rect(0, 0, img.W, img.H))
			if !r.Empty() {
				segment.UpdateTensorRect(rb.in, img, r.Min.X, r.Min.Y, r.Dx(), r.Dy())
			}
		}
		t := time.Now()
		if err := rb.cache.Reprime(ctx, changed); err != nil {
			return err
		}
		tr.record("nn.reprime", "frame", t)
	}
	stem := rb.cache.Stem()
	if want.Pred != nil {
		tr.group = 1
		ref, err := nn.ForwardCtx(ctx, rb.suffix, stem, false)
		if err != nil {
			return err
		}
		refCopy := ref.Clone()
		sc.Put(ref)
		out := rb.walk(rb.suffix, stem, "nn.frame.")
		if !sameTensor(out, refCopy) {
			return fmt.Errorf("layer walk of the frame pass differs from ForwardCtx")
		}
		lm := segment.LabelMapFromScores(out, img.W, img.H)
		sc.Put(out)
		for i := range lm.Pix {
			if lm.Pix[i] != want.Pred.Pix[i] {
				return fmt.Errorf("walked segmentation differs from the program's at pixel %d", i)
			}
		}
	}
	for ti, trial := range want.Trials {
		x0, y0, size := trial.Candidate.CropRect(img.W, img.H)
		t := time.Now()
		cs, ok, err := rb.cache.CropStem(ctx, x0, y0, size, size)
		if err != nil {
			return err
		}
		tr.record("nn.crop_stem", "verdict", t)
		if !ok {
			in := segment.ToTensorScratch(img.Crop(x0, y0, size, size), sc)
			cs = rb.walk(rb.prefix, in, "nn.cropstem.")
			sc.Put(in)
		}
		v, err := rb.verdict(ctx, cs)
		sc.Put(cs)
		if err != nil {
			return err
		}
		if got, w := summarizeVerdict(trial.Candidate, v), summarizeVerdict(trial.Candidate, trial.Verdict); got != w {
			return fmt.Errorf("trial %d: walked verdict %+v differs from the program's %+v", ti, got, w)
		}
	}
	return nil
}

// verdict replays the Monte-Carlo samples layer by layer over a crop stem
// and applies the pixel rule; sample 0 is first checked against ForwardCtx
// over the same suffix.
func (rb *rebuilder) verdict(ctx context.Context, stem *nn.Tensor) (monitor.Verdict, error) {
	net := rb.npipe.Model.Net
	mon := rb.npipe.Monitor
	sc := rb.npipe.Model.Scratch()
	nn.SetDropoutMode(net, nn.AlwaysOn)
	defer nn.SetDropoutMode(net, nn.Auto)
	nn.ReseedDropout(net, mon.Seed)
	ref, err := nn.ForwardCtx(ctx, rb.suffix, stem, false)
	if err != nil {
		return monitor.Verdict{}, err
	}
	refCopy := ref.Clone()
	sc.Put(ref)
	nn.ReseedDropout(net, mon.Seed)
	var sum, sumSq *nn.Tensor
	for s := 0; s < mon.Samples; s++ {
		rb.tr.group++
		out := rb.walk(rb.suffix, stem, "nn.crop.")
		if s == 0 && !sameTensor(out, refCopy) {
			return monitor.Verdict{}, fmt.Errorf("layer walk of a Monte-Carlo sample differs from ForwardCtx")
		}
		t := time.Now()
		probs := nn.SoftmaxChannelsInPlace(out)
		rb.tr.record("nn.crop.softmax", "sample", t)
		if sum == nil {
			sum, sumSq = nn.NewTensor(probs.Shape...), nn.NewTensor(probs.Shape...)
		}
		for i, v := range probs.Data {
			sum.Data[i] += v
			sumSq.Data[i] += v * v
		}
		sc.Put(probs)
	}
	samples := float32(mon.Samples)
	for i := range sum.Data {
		m := sum.Data[i] / samples
		sum.Data[i] = m
		v := sumSq.Data[i]/samples - m*m
		if v < 0 {
			v = 0
		}
		sumSq.Data[i] = float32(math.Sqrt(float64(v)))
	}
	return verdictFromStats(monitor.Stats{Mean: sum, Std: sumSq}, rb.npipe.Rule), nil
}

// walk runs l on x one primitive layer at a time, timing each, recycling
// consumed intermediates the way the containers do.
func (rb *rebuilder) walk(l nn.Layer, x *nn.Tensor, prefix string) *nn.Tensor {
	sc := rb.npipe.Model.Scratch()
	switch c := l.(type) {
	case *nn.Sequential:
		in := x
		for _, sub := range c.Layers {
			next := rb.walk(sub, x, prefix)
			if x != in && x != next {
				sc.Put(x)
			}
			x = next
		}
		return x
	case *nn.ParallelConcat:
		outs := make([]*nn.Tensor, len(c.Branches))
		for i, b := range c.Branches {
			outs[i] = rb.walk(b, x, prefix)
		}
		t := time.Now()
		out := concatChannels(outs, sc)
		rb.tr.record(prefix+"concat", "sample", t)
		for _, o := range outs {
			if o != x {
				sc.Put(o)
			}
		}
		return out
	}
	name := layerName(l)
	t := time.Now()
	out := l.Forward(x, false)
	rb.tr.record(prefix+name, "sample", t)
	if conv, ok := l.(*nn.Conv2D); ok {
		n, _, oh, ow := out.Dims4()
		rb.tr.macs[rb.tr.frame] += float64(n * conv.OutC * oh * ow * conv.InC * conv.K * conv.K)
	}
	return out
}

// concatChannels stacks branch outputs along the channel axis.
func concatChannels(outs []*nn.Tensor, sc *nn.Scratch) *nn.Tensor {
	n, _, h, w := outs[0].Dims4()
	total := 0
	for _, o := range outs {
		total += o.Shape[1]
	}
	out := sc.Get(n, total, h, w)
	off := 0
	for _, o := range outs {
		oc := o.Shape[1]
		for b := 0; b < n; b++ {
			copy(out.Data[(b*total+off)*h*w:(b*total+off+oc)*h*w], o.Data[b*oc*h*w:(b+1)*oc*h*w])
		}
		off += oc
	}
	return out
}

// layerName names a primitive layer the way the metrics do.
func layerName(l nn.Layer) string {
	switch c := l.(type) {
	case *nn.Conv2D:
		name := strings.TrimSuffix(c.W.Name, ".W")
		name = strings.TrimSuffix(name, ".conv")
		return name + "_conv"
	case *nn.BatchNorm2D:
		if strings.HasPrefix(c.Gamma.Name, "branch") {
			return "branch_bn"
		}
		return "stem_bn"
	case *nn.ReLU:
		return "relu"
	case *nn.Dropout:
		return "dropout"
	case *nn.Upsample2x:
		return "upsample"
	}
	return fmt.Sprintf("%T", l)
}

func sameTensor(a, b *nn.Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// metrics aggregates the rebuild's spans into the per-layer metrics.
func (rb *rebuilder) metrics(m map[string]float64) {
	tr := rb.tr
	med := func(name string) float64 { return orZero(median(tr.perGroup(name))) }
	m["monitor.predict_ms_p50"] = med("monitor.predict")
	m["monitor.verdict_ms_p50"] = med("monitor.verdict")
	m["monitor.advance_ms_p50"] = med("monitor.advance")
	m["core.candidates_ms"] = med("core.candidates")
	m["nn.stem_prime_ms"] = med("nn.stem_prime")
	m["nn.reprime_ms"] = med("nn.reprime")
	m["nn.crop_stem_ms"] = med("nn.crop_stem")
	for _, l := range []string{"dropout", "branch1_conv", "branch2_conv", "branch4_conv", "branch_bn", "relu",
		"concat", "head_conv", "upsample", "softmax"} {
		m["nn.crop."+l+"_ms"] = med("nn.crop." + l)
	}
	for _, l := range []string{"stem_conv", "branch1_conv", "branch2_conv", "branch4_conv", "head_conv"} {
		m["nn.frame."+l+"_ms"] = med("nn.frame." + l)
	}
	frames := float64(rb.frames)
	m["core.candidates_per_frame"] = mean(rb.candCounts)
	m["core.relaxations_per_frame"] = mean(rb.relaxations)
	m["core.trials_per_frame"] = mean(rb.trials)
	var macs float64
	for _, v := range tr.macs {
		macs += v
	}
	m["nn.conv_gmacs_per_frame"] = macs / 1e9 / frames
	m["nn.arena_reuses_per_frame"] = float64(rb.reuses) / frames
	m["monitor.cached_crop_ratio"] = float64(rb.cached) / float64(rb.crops)
	m["trace.overhead_ratio"] = rb.tracedMs/rb.programMs - 1
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

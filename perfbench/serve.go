package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"safeland"
	"safeland/internal/faults"
	"safeland/internal/imaging"
)

// trainOptions is the benchmark model's fixed scale: trained in-process
// through the public NewSystem path in every set-up. The model does not
// depend on the workload seed, so two seeds differ only in their inputs.
var trainOptions = safeland.Options{
	Seed:        2021,
	TrainScenes: 3,
	TrainSteps:  40,
	SceneSize:   96,
	MCSamples:   10,
}

// setupReps is how many times a run sets up from nothing; setup_s is the
// median. Only the last set-up serves.
const setupReps = 3

// chaosInjector builds the chaos plan from the seed: every descent of
// every vehicle meets exactly one selector error and one stem corruption,
// at frames the seed picks, and shard0 blacks out frame chaosBlackoutFrame
// of every descent it hosts. Fixed counts keep the share of retried and
// degraded frames nearly the same for every seed; the positions move.
func chaosInjector(seed int64, fleet []vehicle) *faults.Injector {
	inj := faults.NewInjector(seed, faults.Rates{})
	rng := rand.New(rand.NewSource(seed))
	for _, v := range fleet {
		var errs, corrupt []int
		for d := 0; d < chaosDescents; d++ {
			errs = append(errs, d*descentFrames+rng.Intn(descentFrames))
			corrupt = append(corrupt, d*descentFrames+rng.Intn(descentFrames))
		}
		inj.ScheduleFault(faults.SelectorError, v.id, errs...)
		inj.ScheduleFault(faults.StemCorrupt, v.id, corrupt...)
	}
	var blackout []int
	for d := 0; d < chaosDescents; d++ {
		blackout = append(blackout, d*descentFrames+chaosBlackoutFrame)
	}
	return inj.ScheduleFault(faults.ShardBlackout, "shard0", blackout...)
}

const (
	chaosBlackoutFrame = 3 // frame index within each descent
	// chaosDescents is how many descents of each vehicle the plan covers,
	// far more than a run flies.
	chaosDescents = 200
)

// stack is one set-up: a trained system and the serving layers over it.
type stack struct {
	sys      *safeland.System
	eng      *safeland.Engine // select-cold
	shards   []*safeland.Engine
	router   *safeland.Router
	sessions []*safeland.Session
	inj      *faults.Injector
}

// buildStack sets the workload up from nothing: train the model, then
// build the serving layers over it.
func buildStack(w string, seed int64, fleet []vehicle) (*stack, error) {
	return serveStack(w, seed, safeland.NewSystem(trainOptions), fleet, func(string) {})
}

// serveStack builds the serving layers over a trained system: a one-worker
// engine for select-cold, else the chaos fleet's two-shard router (one
// worker per shard, fault injector, degraded fallback) with every vehicle's
// session open. mark is called as each stage ends.
func serveStack(w string, seed int64, sys *safeland.System, fleet []vehicle, mark func(stage string)) (*stack, error) {
	st := &stack{sys: sys}
	if w == "select-cold" {
		eng, err := safeland.NewEngine(safeland.WithSystem(sys), safeland.WithWorkers(1))
		if err != nil {
			return nil, err
		}
		st.eng = eng
		mark("setup.engine")
		return st, nil
	}
	st.inj = chaosInjector(seed, fleet)
	for i := 0; i < 2; i++ {
		eng, err := st.chaosShard(fmt.Sprintf("shard%d", i), len(fleet))
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, eng)
	}
	router, err := safeland.NewRouter(st.shards...)
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = router
	mark("setup.engine")
	for _, v := range fleet {
		s, err := router.NewSession(v.id)
		if err != nil {
			st.close()
			return nil, err
		}
		st.sessions = append(st.sessions, s)
	}
	mark("setup.sessions")
	return st, nil
}

// chaosShard builds one fleet shard: a one-worker engine named as the
// fault plan's shard, serving in degraded mode.
func (st *stack) chaosShard(name string, maxSessions int) (*safeland.Engine, error) {
	return safeland.NewEngine(safeland.WithSystem(st.sys), safeland.WithWorkers(1),
		safeland.WithMaxSessions(maxSessions), safeland.WithShardName(name),
		safeland.WithFaultInjector(st.inj), safeland.WithDegradedFallback(true))
}

func (st *stack) close() {
	for _, s := range st.sessions {
		s.Close()
	}
	if st.eng != nil {
		st.eng.Close()
	}
	for _, e := range st.shards {
		e.Close()
	}
}

// setup builds the stack setupReps times and keeps the last; it returns the
// median set-up time in seconds.
func setup(w string, seed int64, fleet []vehicle) (*stack, float64, error) {
	var times []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		if st, err = buildStack(w, seed, fleet); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return st, median(times), nil
}

// frameRec is one served frame of the measured phase.
type frameRec struct {
	vehicle, frame, round int
	ms                    float64
	done                  time.Duration // completion, from the start of the measured phase
	queued, elapsed       time.Duration
	out                   outcome
}

// phase is what the measured phase leaves for metrics and checks.
type phase struct {
	recs    []frameRec
	seconds float64
	cpuMs   float64
	allocKB float64
	liveMB  float64
	// attempted counts the frames sent: every round or step is whole.
	attempted int
	err       error
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure serves the workload until the run length is spent and at least
// minSamples frames were served, checking every response against the
// Figure 1 contract as it arrives. select-cold serves whole chunks of its
// frame set, round after round; each fleet client serves whole steps (one
// frame for each of its vehicles), so only the first step of a run is cold.
func measure(w string, st *stack, cold []frameInput, fleet []vehicle, dur time.Duration, minSamples int) *phase {
	c := contract{rule: st.sys.Pipeline.Rule, maxTrials: st.sys.Pipeline.MaxTrials}
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()

	p := &phase{}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		if p.err == nil {
			p.err = err
		}
		mu.Unlock()
	}
	if w == "select-cold" {
		for chunk := 0; ; chunk++ {
			lo := chunk * coldChunk % len(cold)
			p.recs = append(p.recs, coldRound(st, cold, lo, lo+coldChunk, chunk*coldChunk/len(cold), start, c, fail)...)
			p.attempted += coldChunk
			if time.Since(start) >= dur && len(p.recs) >= minSamples {
				break
			}
		}
	} else {
		p.recs, p.attempted = flyFleet(st, fleet, start, dur, minSamples, c, fail)
	}
	p.seconds = time.Since(start).Seconds()
	p.cpuMs = float64(cpuTime()-cpu0) / float64(time.Millisecond)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.liveMB = float64(ms1.HeapAlloc) / (1 << 20)
	sort.Slice(p.recs, func(i, j int) bool {
		a, b := p.recs[i], p.recs[j]
		if a.round != b.round {
			return a.round < b.round
		}
		if a.vehicle != b.vehicle {
			return a.vehicle < b.vehicle
		}
		return a.frame < b.frame
	})
	return p
}

// coldRound serves frames lo..hi-1 of the select-cold set once.
func coldRound(st *stack, cold []frameInput, lo, hi, round int, start time.Time, c contract, fail func(error)) []frameRec {
	ctx := context.Background()
	recs := make([]frameRec, 0, hi-lo)
	for i := lo; i < hi; i++ {
		in := cold[i]
		t := time.Now()
		resp := st.eng.Select(ctx, safeland.SelectRequest{Image: in.img, MPP: in.mpp})
		ms := float64(time.Since(t)) / float64(time.Millisecond)
		if resp.Err != nil {
			fail(fmt.Errorf("frame %d: %w", i, resp.Err))
			continue
		}
		if err := checkFigure1(served{res: resp.Result, pred: resp.Result.Pred, w: in.img.W, h: in.img.H,
			degraded: resp.Degraded, cause: resp.DegradedCause}, c); err != nil {
			fail(fmt.Errorf("frame %d: Figure 1 contract: %w", i, err))
		}
		o := summarize(resp.Result)
		o.class = responseClass(resp.Retried, resp.Degraded)
		o.cause = resp.DegradedCause
		recs = append(recs, frameRec{vehicle: -1, frame: i, round: round, ms: ms, done: time.Since(start),
			queued: resp.Queued, elapsed: resp.Elapsed, out: o})
	}
	return recs
}

func responseClass(retried int, degraded bool) string {
	switch {
	case degraded:
		return classDegraded
	case retried > 0:
		return classRetried
	}
	return classClean
}

// flyFleet runs two closed-loop clients, each driving half the vehicles
// frame by frame in round-robin: step n advances each of the client's
// vehicles by one frame, frame n mod descentFrames of the descent of round
// n / descentFrames (the vehicle's descents taken in turn). A client
// stops at a step boundary once the run length is spent and its vehicles
// have flown two rounds.
func flyFleet(st *stack, fleet []vehicle, start time.Time, dur time.Duration, minSamples int, c contract, fail func(error)) ([]frameRec, int) {
	ctx := context.Background()
	half := len(fleet) / 2
	parts := make([][]frameRec, 2)
	attempts := make([]int, 2)
	var wg sync.WaitGroup
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			lo, hi := client*half, (client+1)*half
			if client == 1 {
				hi = len(fleet)
			}
			// A reused frame carries no prediction by contract: its zone is
			// the one the vehicle's last full selection confirmed.
			preds := make([]*imaging.LabelMap, len(fleet))
			minSteps := minSamples / len(fleet)
			for step := 0; step < minSteps || time.Since(start) < dur; step++ {
				k := step % descentFrames
				for v := lo; v < hi; v++ {
					img := fleet[v].frame(step/descentFrames, k)
					attempts[client]++
					t := time.Now()
					resp := st.sessions[v].Advance(ctx, safeland.SelectRequest{Image: img, MPP: fleet[v].mpp})
					ms := float64(time.Since(t)) / float64(time.Millisecond)
					if resp.Err != nil {
						fail(fmt.Errorf("vehicle %s frame %d: %w", fleet[v].id, k, resp.Err))
						continue
					}
					pred := resp.Result.Pred
					if pred != nil {
						preds[v] = pred
					} else if resp.Reused {
						pred = preds[v]
					}
					if err := checkFigure1(served{res: resp.Result, pred: pred, w: img.W, h: img.H,
						degraded: resp.Degraded, cause: resp.DegradedCause}, c); err != nil {
						fail(fmt.Errorf("vehicle %s frame %d: Figure 1 contract: %w", fleet[v].id, k, err))
					}
					o := summarize(resp.Result)
					o.class = responseClass(resp.Retried, resp.Degraded)
					o.cause = resp.DegradedCause
					o.reused, o.changed = resp.Reused, resp.Changed
					parts[client] = append(parts[client], frameRec{vehicle: v, frame: k, round: step / descentFrames,
						ms: ms, done: time.Since(start), queued: resp.Queued, elapsed: resp.Elapsed, out: o})
				}
			}
		}(client)
	}
	wg.Wait()
	return append(parts[0], parts[1]...), attempts[0] + attempts[1]
}

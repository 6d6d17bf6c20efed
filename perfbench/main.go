// Command perfbench is the repository's benchmark: it sets the emergency
// landing stack up from nothing, serves one named workload for a fixed
// time, checks every response, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on its last line.
//
//	perfbench -workload select-cold -seed 1 -seconds 30 -trace 0
//	perfbench steady -workload descent-chaos
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"select-cold", "descent-chaos"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	w := fs.String("workload", "", "workload name: select-cold or descent-chaos")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.Parse(os.Args[1:])
	if !known(*w) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *w)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(*w, *seed, dur)
	} else {
		res, err = runEndToEnd(*w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// tailFor is each workload's fixed tail percentile: the tail rule applied to
// the sample count every run's tail is guaranteed (one per frame of the
// select-cold set, else minSamplesFor), so the reported percentile never
// changes meaning between runs.
func tailFor(w string) float64 {
	if w == "select-cold" {
		return tailPercentile(coldScenes)
	}
	return tailPercentile(minSamplesFor(w))
}

// minSamplesFor is the fewest frames a run serves: coldRounds rounds of the
// select-cold set, or the fleet digest's rounds.
func minSamplesFor(w string) int {
	if w == "select-cold" {
		return coldRounds * coldScenes
	}
	return digestRounds(w) * fleetVehicles * descentFrames
}

// latencies returns the samples of the latency metrics: frame_ms_p50 and
// frame_ms_tail take lat, first_verdict_ms_p50 takes first. On
// descent-chaos lat holds every call and first every descent's first frame.
// On select-cold, where every run serves the same frames coldRounds times
// and every frame is a first frame, each frame gives one sample, its
// fastest latency of those servings: a frame slowed by a burst of other
// load on the shared host in one serving is counted at its cost in
// another, so the figures follow the program's costs rather than the
// host's busiest moments.
func latencies(w string, recs []frameRec) (lat, first []float64) {
	if w != "select-cold" {
		for _, r := range recs {
			lat = append(lat, r.ms)
			if r.frame == 0 {
				first = append(first, r.ms)
			}
		}
		return lat, first
	}
	fastest := make(map[int]float64)
	for _, r := range recs {
		if r.round >= coldRounds {
			continue
		}
		if v, ok := fastest[r.frame]; !ok || r.ms < v {
			fastest[r.frame] = r.ms
		}
	}
	for _, v := range fastest {
		lat = append(lat, v)
	}
	return lat, lat
}

// rateGroup is how many consecutive completions frames_per_s measures a
// rate over.
const rateGroup = 48

// frameRate is frames_per_s: the median, over the run's consecutive groups
// of rateGroup completions, of a group's completions per second. A median
// over groups a few seconds long leaves out the stretches in which other
// load on the shared host slowed every frame.
func frameRate(recs []frameRec) float64 {
	done := make([]float64, len(recs))
	for i, r := range recs {
		done[i] = r.done.Seconds()
	}
	sort.Float64s(done)
	var rates []float64
	for i := rateGroup; i < len(done); i += rateGroup {
		rates = append(rates, rateGroup/(done[i]-done[i-rateGroup]))
	}
	return median(rates)
}

// digestRounds is how many rounds, all of which every run completes, the
// outcome digest covers: the select-cold frame set once (every later round
// must repeat it, checkRounds); the fleet's first two
// rounds, the first starting cold and the second flying each vehicle's
// next descent on its warm session.
func digestRounds(w string) int {
	if w == "select-cold" {
		return 1
	}
	return 2
}

// runEndToEnd is the untraced run: set up, serve for dur, check, report.
func runEndToEnd(w string, seed int64, dur time.Duration) (result, error) {
	var cold []frameInput
	var fleet []vehicle
	if w == "select-cold" {
		cold = coldInputs(seed)
	} else {
		fleet = fleetInputs(seed)
	}
	st, setupS, err := setup(w, seed, fleet)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	p := measure(w, st, cold, fleet, dur, minSamplesFor(w))

	lat, first := latencies(w, p.recs)
	n := float64(len(p.recs))
	res := result{
		Attempted: p.attempted,
		Metrics: map[string]metric{
			"setup_s":              {setupS, "s"},
			"first_verdict_ms_p50": {median(first), "ms"},
			"frame_ms_p50":         {median(lat), "ms"},
			"frame_ms_tail":        {percentile(lat, tailFor(w)), "ms"},
			"frames_per_s":         {frameRate(p.recs), "1/s"},
			"cpu_ms_per_frame":     {p.cpuMs / n, "ms"},
			"alloc_kb_per_frame":   {p.allocKB / n, "KiB"},
			"live_heap_mb":         {p.liveMB, "MiB"},
		},
	}
	res.Failed = p.attempted - len(p.recs)
	digest, cerr := checkRun(w, st, cold, fleet, p)
	if cerr == nil {
		cerr = p.err
	}
	res.Correct = cerr == nil && res.Failed == 0
	if cerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", cerr)
	}
	fmt.Printf("digest %s frames %d seconds %.1f tail p%g\n", digest, len(p.recs), p.seconds, tailFor(w))
	return res, nil
}

// outcomeDigest hashes the outcomes of the rounds every run completes, in
// round, vehicle, frame order.
func outcomeDigest(w string, recs []frameRec) string {
	h := sha256.New()
	for _, r := range recs {
		if r.round < digestRounds(w) {
			fmt.Fprintf(h, "%d/%d/%d %s\n", r.round, r.vehicle, r.frame, r.out)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// steadyRuns is how many runs, one seed each (seeds 1..steadyRuns), make
// up each of the two sets.
const steadyRuns = 10

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is what one benchmark run printed.
type runOutput struct {
	seed   int64
	digest string
	res    result
}

// steadyMain runs two sets of runs of one workload (seeds 1..steadyRuns in
// each set, run_seconds from BENCHMARK.json) and prints, per end-to-end
// metric, each set's quartiles and spread, the spread of the per-seed ratio
// between the sets, and whether the two medians agree within the metric's
// bound. It also checks that a seed printed the same outcome digest in both
// sets and that the failed share is the same in every run.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	w := fs.String("workload", "", "workload to run")
	fs.Parse(args)
	if !known(*w) {
		fmt.Fprintln(os.Stderr, "steady: need a known -workload")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	var bs benchSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		fmt.Fprintln(os.Stderr, "steady: parsing BENCHMARK.json:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	sets := make([][]runOutput, 2)
	for s := range sets {
		for seed := int64(1); seed <= steadyRuns; seed++ {
			out, err := runOnce(self, *w, seed, bs.RunSeconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: set %d seed %d: %v\n", s+1, seed, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "set %d seed %d: digest %s attempted %d failed %d\n",
				s+1, seed, out.digest, out.res.Attempted, out.res.Failed)
			sets[s] = append(sets[s], out)
		}
	}
	if !report(os.Stdout, *w, bs, sets) {
		return 1
	}
	return 0
}

func runOnce(self, w string, seed int64, seconds int) (runOutput, error) {
	cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return runOutput{}, err
	}
	out := runOutput{seed: seed}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) > 1 && f[0] == "digest" {
			out.digest = f[1]
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &out.res); err != nil {
		return runOutput{}, fmt.Errorf("last line is not a result: %v", err)
	}
	if !out.res.Correct {
		return out, fmt.Errorf("run reported correct=false")
	}
	return out, nil
}

// spread is the distance between the quartiles as a share of the median,
// as Python's statistics.quantiles(values, n=4) gives them.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// shift is how much worse b is than a, as a share of a; negative when b is
// better.
func shift(a, b float64, better string) float64 {
	d := (b - a) / a
	if better == "higher" {
		return -d
	}
	return d
}

// agree reports whether two medians are within bound of each other, in
// either direction: a set that reads far better is as unsteady as one that
// reads far worse.
func agree(a, b float64, better string, bound float64) bool {
	return math.Abs(shift(a, b, better)) <= bound
}

func okWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "WIDE"
}

// report prints the steadiness table and returns whether every check held.
// "iqr1" and "iqr2" are each set's spread across its seeds, the figure a
// bound must hold; "paired" is the spread of each seed's set-2 / set-1
// ratio, the run-to-run noise with the seeds' make-up taken out.
func report(f *os.File, w string, bs benchSpec, sets [][]runOutput) bool {
	ok := true
	fmt.Fprintf(f, "workload %s: %d runs per set, seeds %d..%d in each set, %d s runs\n", w, len(sets[0]),
		sets[0][0].seed, sets[0][len(sets[0])-1].seed, bs.RunSeconds)
	fmt.Fprintf(f, "%-22s %-24s %-24s %6s %6s %6s %5s %-6s %s\n", "metric", "set 1 q1/median/q3", "set 2 q1/median/q3",
		"iqr1", "iqr2", "paired", "bound", "spread", "second median")
	for _, m := range bs.EndToEnd {
		var meds [2]float64
		var line [2]string
		var iqr [2]float64
		var xs [2][]float64
		for s := range sets {
			for _, r := range sets[s] {
				xs[s] = append(xs[s], r.res.Metrics[m.Name].Value)
			}
			q1, q2, q3 := quartiles(xs[s])
			meds[s] = q2
			iqr[s] = spread(xs[s])
			line[s] = fmt.Sprintf("%.4g/%.4g/%.4g", q1, q2, q3)
		}
		var ratios []float64
		for i := range xs[0] {
			ratios = append(ratios, xs[1][i]/xs[0][i])
		}
		spreadOK := iqr[0] <= m.Bound && iqr[1] <= m.Bound
		within := agree(meds[0], meds[1], m.Better, m.Bound)
		ok = ok && within && spreadOK
		fmt.Fprintf(f, "%-22s %-24s %-24s %6.3f %6.3f %6.3f %5.2f %-6s %+.2f%% worse, within bound: %v\n", m.Name, line[0], line[1],
			iqr[0], iqr[1], spread(ratios), m.Bound, okWord(spreadOK), 100*shift(meds[0], meds[1], m.Better), within)
	}
	shares := map[float64]bool{}
	for i := range sets[0] {
		a, b := sets[0][i], sets[1][i]
		fmt.Fprintf(f, "seed %d digest %s", a.seed, a.digest)
		if a.digest != b.digest {
			fmt.Fprintf(f, " in set 1, %s in set 2", b.digest)
			ok = false
		}
		fmt.Fprintln(f)
		for _, r := range []runOutput{a, b} {
			shares[float64(r.res.Failed)/float64(r.res.Attempted)] = true
		}
	}
	fmt.Fprintf(f, "failed share identical in every run: %v\n", len(shares) == 1)
	ok = ok && len(shares) == 1
	fmt.Fprintf(f, "steady: %v\n", ok)
	return ok
}

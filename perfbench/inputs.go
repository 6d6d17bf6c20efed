package main

import (
	"fmt"

	"safeland/internal/imaging"
	"safeland/internal/scenario"
	"safeland/internal/urban"
)

// Input scale. Every constant here is part of the workload definition the
// README documents; changing one changes what the benchmark measures.
const (
	frameSize = 192 // frame side in pixels, the tools' default scene size

	// select-cold: one round is coldScenes distinct frames, one in
	// coldOODEvery of them a sunset (out-of-distribution) scene, served in
	// chunks of coldChunk so a run stops within a few seconds of its length.
	// Every run serves at least coldRounds rounds; the tail takes each
	// frame's fastest of those servings (see frameTail).
	coldScenes   = 144
	coldChunk    = 48
	coldOODEvery = 4
	coldRounds   = 3

	// descent fleets: fleetVehicles sessions, each flying fleetDescents
	// distinct descentFrames-frame descents in turn (descent r mod
	// fleetDescents in round r), each over its own base scene; one in
	// fleetOODEvery vehicles flies over sunset scenes.
	fleetVehicles = 24
	descentFrames = 8
	fleetDescents = 3
	fleetOODEvery = 4

	// One in fleetDisputeEvery vehicles (vehicle 1, 5, ...; in distribution)
	// flies a descent whose perturbation is strong and wide enough to reach
	// a zone confirmed on an earlier frame, so its warm frames exercise the
	// session's disputed branch: the re-verification fails and a full
	// selection over the carried context follows.
	fleetDisputeEvery = 4
	disputePatchPx    = 96
	disputeAmplitude  = 0.5
)

// frameInput is one frame the benchmark serves.
type frameInput struct {
	img *imaging.Image
	mpp float64
}

// coldInputs generates one round of select-cold frames from the seed: a
// stream of distinct scenes, in-distribution with every coldOODEvery-th
// scene out of distribution.
func coldInputs(seed int64) []frameInput {
	out := make([]frameInput, coldScenes)
	for i := range out {
		s := generate(i%coldOODEvery == coldOODEvery-1, coldSceneSeed(seed, i))
		out[i] = frameInput{img: s.Image, mpp: s.MPP}
	}
	return out
}

func coldSceneSeed(seed int64, i int) int64 { return seed*100003 + int64(i) }

// fleetSceneSeed is the generator seed of vehicle v's descent d.
func fleetSceneSeed(seed int64, v, d int) int64 { return seed*100003 + 50000 + int64(d*1000+v) }

// generate builds one frameSize² scene, in distribution (day) or out of it
// (the paper's sunset condition).
func generate(ood bool, seed int64) *urban.Scene {
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = frameSize, frameSize
	cond := urban.DefaultConditions()
	if ood {
		cond = urban.SunsetConditions()
	}
	return scenario.Spec{Cfg: cfg, Cond: cond, Seed: seed}.Generate()
}

// vehicle is one member of a descent fleet: its ID (which fixes its home
// shard) and its descents.
type vehicle struct {
	id       string
	mpp      float64
	descents [][]*imaging.Image
}

// frame is the image vehicle flies at frame k of round r.
func (v vehicle) frame(r, k int) *imaging.Image { return v.descents[r%len(v.descents)][k] }

// disputes reports whether vehicle v flies the strong-perturbation descents.
func disputes(v int) bool { return v%fleetDisputeEvery == 1 }

// fleetInputs generates the fleet's descents from the seed. Vehicle IDs do
// not depend on the seed, so shard placement is the same in every run; base
// scenes and perturbations do.
func fleetInputs(seed int64) []vehicle {
	out := make([]vehicle, fleetVehicles)
	for v := range out {
		out[v].id = fmt.Sprintf("uav-%02d", v)
		for d := 0; d < fleetDescents; d++ {
			base := generate(v%fleetOODEvery == fleetOODEvery-1, fleetSceneSeed(seed, v, d))
			desc := scenario.Descent{Frames: descentFrames, Seed: seed*7919 + int64(d*1000+v)}
			if disputes(v) {
				desc.PatchPx, desc.Amplitude = disputePatchPx, disputeAmplitude
			}
			out[v].mpp = base.MPP
			out[v].descents = append(out[v].descents, scenario.DescentFrames(base.Image, desc))
		}
	}
	return out
}

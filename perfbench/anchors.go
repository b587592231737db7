package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/scenario"
)

// anchor is the reference output of one scenario seed: what every run of
// that seed must reproduce exactly.
type anchor struct {
	Jobs   int     `json:"jobs"`
	NUs    float64 `json:"nus"`
	Events uint64  `json:"events"`
	// Digest is the SHA-256 of the central accounting export
	// (accounting.Central.Export, the acct.jsonl format).
	Digest string `json:"digest"`
}

// anchorSet maps a scale ("loaded", "quick") to its anchors by seed.
type anchorSet map[string]map[string]anchor

// anchorsFile holds the anchors, generated at the commit that introduced
// the benchmark with -regen-anchors. Optimizations must not move them.
const anchorsFile = "anchors.json"

// roadmapQuick7 is the repository's long-standing determinism anchor:
// quick scale, seed 7.
var roadmapQuick7 = struct {
	Jobs   int
	NUs    float64
	Events uint64
}{5129, 21020939, 14210}

func loadAnchors(path string) (anchorSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set anchorSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// checkRoadmap confirms the anchors file carries the quick seed-7 anchor.
func (set anchorSet) checkRoadmap() error {
	a, ok := set["quick"]["7"]
	want := roadmapQuick7
	if !ok || a.Jobs != want.Jobs || fmt.Sprintf("%.0f", a.NUs) != fmt.Sprintf("%.0f", want.NUs) || a.Events != want.Events {
		return fmt.Errorf("anchors: quick seed 7 is %+v, want jobs=%d NUs=%.0f events=%d",
			a, want.Jobs, want.NUs, want.Events)
	}
	return nil
}

// outputOf computes the anchor of a finished run.
func outputOf(c *accounting.Central, events uint64) (anchor, error) {
	h := sha256.New()
	if err := c.Export(h); err != nil {
		return anchor{}, err
	}
	return anchor{
		Jobs: len(c.Jobs()), NUs: c.TotalNUs(), Events: events,
		Digest: hex.EncodeToString(h.Sum(nil)),
	}, nil
}

// check compares a run's output with the anchor of its scale and seed,
// the export digest included when withDigest is set.
func (set anchorSet) check(scale string, seed uint64, got anchor, withDigest bool) error {
	want, ok := set[scale][strconv.FormatUint(seed, 10)]
	if !ok {
		return fmt.Errorf("%s seed %d: no anchor", scale, seed)
	}
	if !withDigest {
		got.Digest = want.Digest
	}
	if got != want {
		return fmt.Errorf("%s seed %d: output jobs=%d NUs=%v events=%d digest=%.12s, anchor jobs=%d NUs=%v events=%d digest=%.12s",
			scale, seed, got.Jobs, got.NUs, got.Events, got.Digest, want.Jobs, want.NUs, want.Events, want.Digest)
	}
	return nil
}

// regenAnchors runs every seed of both pools untraced and writes the
// anchors file.
func regenAnchors(path string) error {
	set := anchorSet{"loaded": {}, "quick": {}}
	add := func(scale string, seed uint64, cfg scenario.Config) error {
		res, err := scenario.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", scale, seed, err)
		}
		a, err := outputOf(res.Central, res.Kernel.Executed())
		if err != nil {
			return err
		}
		set[scale][strconv.FormatUint(seed, 10)] = a
		fmt.Fprintf(os.Stderr, "%s seed %d: jobs=%d NUs=%.0f events=%d\n", scale, seed, a.Jobs, a.NUs, a.Events)
		return nil
	}
	for _, seed := range poolSeeds(loadedPool) {
		if err := add("loaded", seed, loadedConfig(seed)); err != nil {
			return err
		}
	}
	for _, seed := range poolSeeds(fleetWindows + fleetReps - 1) {
		if err := add("quick", seed, experiments.StandardConfig(seed, experiments.Quick)); err != nil {
			return err
		}
	}
	if err := set.checkRoadmap(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

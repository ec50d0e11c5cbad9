package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTraceFlagEmitsChainRounds(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "race.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-blocks", "50", "-trace", trace}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer f.Close()
	var rounds, spans, lines int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var tl struct {
			Type   string         `json:"type"`
			Name   string         `json:"name"`
			Fields map[string]any `json:"fields"`
		}
		if err := json.Unmarshal(sc.Bytes(), &tl); err != nil {
			t.Fatalf("trace line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if tl.Type == "event" && tl.Name == "chain.round" {
			rounds++
			if _, ok := tl.Fields["winner"]; !ok {
				t.Errorf("chain.round event missing winner: %+v", tl)
			}
		}
		if tl.Type == "span" && tl.Name == "chain.grow" {
			spans++
		}
	}
	if rounds != 50 {
		t.Errorf("got %d chain.round events, want 50", rounds)
	}
	if spans != 1 {
		t.Errorf("got %d chain.grow spans, want 1", spans)
	}
}

func TestMetricsFlagReportsRaceStats(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-blocks", "50", "-metrics"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"mined 50 canonical blocks", // normal report intact
		"== metrics ==",
		"chain.blocks_mined_total",
		"chain.max_rivals_per_round",
		"chain.round_duration_s",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestNoObservabilityFlagsNoMetricsDump(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-blocks", "20"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(out.String(), "== metrics ==") {
		t.Errorf("metrics dump should require -metrics:\n%s", out.String())
	}
}

package sim

import (
	"context"
	"strings"
	"testing"
)

func TestFacadeScenarioRoundTrip(t *testing.T) {
	scenarios := Fig8Scenarios()
	if len(scenarios) != 6 {
		t.Fatalf("got %d scenarios, want 6", len(scenarios))
	}
	for _, s := range scenarios {
		got, err := ScenarioByID(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Label != s.Label {
			t.Errorf("round trip %s: %q != %q", s.ID, got.Label, s.Label)
		}
	}
}

func TestFacadeRunAndPrint(t *testing.T) {
	s, err := ScenarioByID("fig8a")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := new(Runner).RunStream(context.Background(), ScenarioGrid(s, 0.02, 1, 1), NewTextAggregator(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"NoPFS", "LowerBound", "Naive", "fig8a"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario report missing %q:\n%s", want, out)
		}
	}
}

func TestFacadeSweepAndPrint(t *testing.T) {
	rep, err := new(Runner).Run(context.Background(), Fig9Grid(0.002, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	PrintFig9Matrix(&buf, rep)
	out := buf.String()
	if !strings.Contains(out, "512") || !strings.Contains(out, "1024") {
		t.Errorf("sweep grid missing row/column headers:\n%s", out)
	}
	// Header line, SSD column heads, 5 RAM rows; every cell is a simulated
	// runtime, never the zero a missing row would print.
	if lines := strings.Count(out, "\n"); lines != 7 {
		t.Errorf("sweep grid has %d lines, want 7:\n%s", lines, out)
	}
	if strings.Contains(out, " 0.0") {
		t.Errorf("sweep grid has an empty cell:\n%s", out)
	}
}

func TestFacadePolicyRegistry(t *testing.T) {
	if len(AllPolicies()) != 10 {
		t.Errorf("expected 10 policies, got %d", len(AllPolicies()))
	}
	for _, ctor := range []func() Policy{NewNoPFS, NewLowerBound, NewNaive, NewStagingBuffer} {
		p := ctor()
		if _, err := PolicyByName(p.Name()); err != nil {
			t.Errorf("constructor policy %q not in registry", p.Name())
		}
	}
}

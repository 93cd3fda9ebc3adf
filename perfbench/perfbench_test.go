package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
)

// askOps runs n cluster ops on w from one caller and returns it.
func askOps(t *testing.T, w *clusterWorld, n int) *caller {
	t.Helper()
	c := newCaller(0, 1, nil)
	for i := 0; i < n; i++ {
		w.op(c)
	}
	return c
}

func TestClusterAskCountsWrongReplies(t *testing.T) {
	w, err := newClusterWorld(64, 1, func(r echoRep) echoRep { return echoRep{ID: r.ID + 1} })
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	c := askOps(t, w, 50)
	if c.ops != 50 || c.failed != 50 {
		t.Fatalf("corrupted replies: %d ops, %d failed; want every op failed", c.ops, c.failed)
	}
}

func TestClusterAskPassesEchoedReplies(t *testing.T) {
	w, err := newClusterWorld(64, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	c := askOps(t, w, 50)
	if c.ops != 50 || c.failed != 0 {
		t.Fatalf("echoed replies: %d ops, %d failed; want none failed", c.ops, c.failed)
	}
	if c.fwd == 0 || c.fwd == c.ops {
		t.Fatalf("%d of %d ops forwarded; want a mix of local and forwarded grains", c.fwd, c.ops)
	}
}

func TestFloodBurstLandsWhole(t *testing.T) {
	w, err := newFloodWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	c := newCaller(0, 1, nil)
	w.op(c)
	if c.ops != floodBurst || c.failed != 0 || w.verify() != 0 {
		t.Fatalf("burst: %d ops, %d failed, %d lost on the path", c.ops, c.failed, w.verify())
	}
}

func TestModelsAgree(t *testing.T) {
	same := []core.Metrics{{"consumed": 10}, {"consumed": 10}, {"consumed": 10}}
	if !modelsAgree("boundedbuffer", same) {
		t.Fatal("equal comparable metrics reported as disagreeing")
	}
	differ := []core.Metrics{{"consumed": 10}, {"consumed": 9}, {"consumed": 10}}
	if modelsAgree("boundedbuffer", differ) {
		t.Fatal("a model that lost an item passed the cross-model check")
	}
	barber := []core.Metrics{{"served": 5, "turnedAway": 5}, {"served": 7, "turnedAway": 3}, {"served": 7, "turnedAway": 2}}
	if modelsAgree("sleepingbarber", barber) {
		t.Fatal("a lost customer passed the served+turnedAway check")
	}
}

func TestExploreCountsMismatchedStates(t *testing.T) {
	w, err := newExploreWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	const small = 5
	if exploreCases[small].program != "fig3c_interleave" {
		t.Fatalf("case %d is %s", small, exploreCases[small].span())
	}
	w.order = make([]int, len(exploreCases))
	for i := range w.order {
		w.order[i] = small
	}
	w.pos = 1 // keep this order instead of drawing a fresh one
	c := newCaller(0, 1, nil)
	w.op(c)
	states := int64(w.refs[small].states)
	if c.ops != states || c.failed != 0 {
		t.Fatalf("matching exploration: %d ops, %d failed; want %d, 0", c.ops, c.failed, states)
	}
	w.refs[small].states++
	w.op(c)
	if c.failed != states {
		t.Fatalf("a state-count mismatch counted %d failed ops, want %d", c.failed, states)
	}
}

// TestBenchmarkJSONListsEveryRow keeps BENCHMARK.json's per-layer list in
// step with the rows the traced run prints.
func TestBenchmarkJSONListsEveryRow(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	rows := layerRows(&traceData{spans: spanSet{}})
	if len(rows) != len(doc.PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run prints %d", len(doc.PerLayer), len(rows))
	}
	for i, r := range rows {
		if got := doc.PerLayer[i]; got.Name != r.name || got.Unit != r.unit {
			t.Errorf("per_layer[%d] = %s (%s), traced run prints %s (%s)", i, got.Name, got.Unit, r.name, r.unit)
		}
	}
}

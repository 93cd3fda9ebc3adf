package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/actors"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/trace"
)

// traceTable measures what distributed tracing costs the two hot paths it
// instruments: the local Tell flood (origination + mailbox/handler marks)
// and the remote ping-pong (span serialization riding the message frame).
// Rows are untraced, the default 1-in-64 sampling, and every-message
// tracing; overhead is relative to the untraced row. The default-sampling
// rows are the ones the CI trace-smoke bound enforces (≤1.5x on the Tell
// path, same aggregation as TestTraceOverheadSmoke).
func traceTable(reps, scale int) []benchEntry {
	t := metrics.NewTable("DISTRIBUTED TRACING OVERHEAD: traced vs untraced (docs/OBSERVABILITY.md)",
		"Case", "value", "overhead")
	var entries []benchEntry

	// Local flood: same interleaved best-of aggregation as obsTable — the
	// overhead is a ratio, so every case must see the same machine drift.
	floodN := 200000 / scale
	floodCases := []struct {
		name   string
		sample int // 0 = untraced
	}{
		{"tell flood, untraced (baseline)", 0},
		{"tell flood, traced 1/64 (default)", 64},
		{"tell flood, traced every message", 1},
	}
	floodCfg := func(sample int) actors.Config {
		if sample == 0 {
			return actors.Config{}
		}
		return actors.Config{Tracer: trace.NewTracer(sample, 0)}
	}
	best := make([]float64, len(floodCases))
	for r := 0; r < reps+1; r++ {
		for i, c := range floodCases {
			start := time.Now()
			if err := tellFloodOnce(floodCfg(c.sample), 8, floodN); err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", c.name, err)
				os.Exit(1)
			}
			d := float64(time.Since(start))
			if r == 0 {
				continue // warmup round
			}
			if best[i] == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	var base float64
	for i, c := range floodCases {
		rate := float64(floodN) / (best[i] / 1e9)
		overhead := "-"
		if i == 0 {
			base = rate
		} else if base > 0 {
			pct := (base - rate) / base * 100
			overhead = fmt.Sprintf("%+.1f%%", pct)
			entries = append(entries, benchEntry{Name: c.name, Metric: "overhead_pct", Value: pct})
		}
		t.AddRow(c.name, fmt.Sprintf("%.2fM msgs/sec", rate/1e6), overhead)
		entries = append(entries, benchEntry{Name: c.name, Metric: "msgs/sec", Value: rate})
	}

	// Remote ping-pong over the in-process transport: both nodes traced, so
	// sampled requests originate at the near node, migrate across the
	// wire, and finish at the echo handler — the full serialization cost.
	pingN := 4000 / scale
	pingCases := []struct {
		name   string
		sample int
	}{
		{"remote ping-pong, untraced (baseline)", 0},
		{"remote ping-pong, traced 1/64 (default)", 64},
		{"remote ping-pong, traced every message", 1},
	}
	pingBest := make([]float64, len(pingCases))
	for r := 0; r < reps+1; r++ {
		for i, c := range pingCases {
			d, err := tracedPingPongOnce(c.sample, pingN)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", c.name, err)
				os.Exit(1)
			}
			if r == 0 {
				continue
			}
			if pingBest[i] == 0 || d < pingBest[i] {
				pingBest[i] = d
			}
		}
	}
	var pingBase float64
	for i, c := range pingCases {
		perOp := pingBest[i] / float64(pingN)
		overhead := "-"
		if i == 0 {
			pingBase = perOp
		} else if pingBase > 0 {
			pct := (perOp - pingBase) / pingBase * 100
			overhead = fmt.Sprintf("%+.1f%%", pct)
			entries = append(entries, benchEntry{Name: c.name, Metric: "overhead_pct", Value: pct})
		}
		t.AddRow(c.name, fmt.Sprintf("%.1f µs/op", perOp/1e3), overhead)
		entries = append(entries, benchEntry{Name: c.name, Metric: "ns/op", Value: perOp})
	}

	fmt.Print(t)
	return entries
}

// tracedPingPongOnce times n Ask round trips between two fresh mem-transport
// nodes whose systems both trace 1 in sample sends (0 = untraced).
func tracedPingPongOnce(sample, n int) (float64, error) {
	net := remote.NewMemNetwork()
	mkSys := func(addr string) *actors.System {
		if sample == 0 {
			return nil // node owns a default untraced system
		}
		tr := trace.NewTracer(sample, 0)
		tr.SetNode(addr)
		return actors.NewSystem(actors.Config{Tracer: tr})
	}
	na, err := remote.NewNode(remote.Config{
		ListenAddr: "trace-near", Transport: net.Endpoint("trace-near"), System: mkSys("trace-near"),
	})
	if err != nil {
		return 0, err
	}
	defer na.Close()
	nb, err := remote.NewNode(remote.Config{
		ListenAddr: "trace-far", Transport: net.Endpoint("trace-far"), System: mkSys("trace-far"),
	})
	if err != nil {
		return 0, err
	}
	defer nb.Close()
	echo := nb.System().MustSpawn("echo", func(ctx *actors.Context, msg any) {
		if p, ok := msg.(benchPing); ok {
			ctx.Reply(benchPong{N: p.N})
		}
	})
	nb.Register("echo", echo)
	ref, err := na.RefFor("echo@" + nb.Addr())
	if err == nil {
		err = na.Connect(nb.Addr(), 5*time.Second)
	}
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := actors.Ask(na.System(), ref, benchPing{N: i}, 30*time.Second); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)), nil
}

// writeTraceBaseline persists the tracing-overhead entries as the committed
// regression baseline (BENCH_trace.json).
func writeTraceBaseline(path string, scale int, entries []benchEntry) error {
	doc := struct {
		Note    string       `json:"note"`
		Command string       `json:"command"`
		Scale   int          `json:"scale"`
		Entries []benchEntry `json:"entries"`
	}{
		Note: "Distributed-tracing overhead baseline. Machine-dependent: compare " +
			"the overhead_pct entries (traced vs untraced Tell flood and remote " +
			"ping-pong), not absolute rates. The 1/64-sampled rows are the " +
			"default configuration and the ones CI bounds.",
		Command: "go run ./cmd/benchtables -json-trace BENCH_trace.json",
		Scale:   scale,
		Entries: entries,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/metrics"
	"repro/internal/remote"
)

// Wire payloads for the remote benchmarks (gob needs exported fields).
type benchPing struct{ N int }
type benchPong struct{ N int }

func init() {
	remote.RegisterType(benchPing{})
	remote.RegisterType(benchPong{})
}

// remotePair builds two connected nodes with an echo actor on the far one.
func remotePair(mem bool) (near *remote.Node, echoRef *actors.Ref, cleanup func(), err error) {
	var ta, tb remote.Transport
	addrA, addrB := "127.0.0.1:0", "127.0.0.1:0"
	if mem {
		net := remote.NewMemNetwork()
		addrA, addrB = "bench-near", "bench-far"
		ta, tb = net.Endpoint(addrA), net.Endpoint(addrB)
	} else {
		ta, tb = remote.TCPTransport{}, remote.TCPTransport{}
	}
	na, err := remote.NewNode(remote.Config{ListenAddr: addrA, Transport: ta})
	if err != nil {
		return nil, nil, nil, err
	}
	nb, err := remote.NewNode(remote.Config{ListenAddr: addrB, Transport: tb})
	if err != nil {
		na.Close()
		return nil, nil, nil, err
	}
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
		na.Close()
		nb.Close()
		return nil, nil, nil, err
	}
	return na, ref, func() { na.Close(); nb.Close() }, nil
}

// remoteTable prints node-to-node wire numbers (the distribution layer's
// half of the performance story; see docs/REMOTE.md) and returns them for
// the -json-remote baseline (BENCH_remote.json).
func remoteTable(reps, scale int) []benchEntry {
	t := metrics.NewTable("REMOTE ACTORS: node-to-node wire (docs/REMOTE.md)",
		"Case", "value")
	var entries []benchEntry

	pingPong := func(name string, mem bool, n int) {
		var perOp float64
		_, err := timeMedian(reps, func() error {
			na, ref, cleanup, err := remotePair(mem)
			if err != nil {
				return err
			}
			defer cleanup()
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, err := actors.Ask(na.System(), ref, benchPing{N: i}, 30*time.Second); err != nil {
					return fmt.Errorf("iter %d: %w", i, err)
				}
			}
			perOp = float64(time.Since(start).Nanoseconds()) / float64(n)
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", name, err)
			os.Exit(1)
		}
		t.AddRow(name, fmt.Sprintf("%.0f ns/round-trip", perOp))
		entries = append(entries, benchEntry{Name: name, Metric: "ns/round-trip", Value: perOp})
	}

	n := 2000 / scale
	pingPong("remote ping-pong (mem transport)", true, n)
	pingPong("remote ping-pong (loopback tcp)", false, n)

	throughput := func(name string, mem bool, n int) {
		var rate float64
		_, err := timeMedian(reps, func() error {
			var ta, tb remote.Transport
			addrA, addrB := "127.0.0.1:0", "127.0.0.1:0"
			if mem {
				net := remote.NewMemNetwork()
				addrA, addrB = "tp-near", "tp-far"
				ta, tb = net.Endpoint(addrA), net.Endpoint(addrB)
			} else {
				ta, tb = remote.TCPTransport{}, remote.TCPTransport{}
			}
			na, err := remote.NewNode(remote.Config{ListenAddr: addrA, Transport: ta, OutboxCap: n + 16})
			if err != nil {
				return err
			}
			defer na.Close()
			nb, err := remote.NewNode(remote.Config{ListenAddr: addrB, Transport: tb})
			if err != nil {
				return err
			}
			defer nb.Close()
			var got atomic.Int64
			done := make(chan struct{})
			sink := nb.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
				if got.Add(1) == int64(n) {
					close(done)
				}
			})
			nb.Register("sink", sink)
			ref, err := na.RefFor("sink@" + nb.Addr())
			if err != nil {
				return err
			}
			if err := na.Connect(nb.Addr(), 5*time.Second); err != nil {
				return err
			}
			start := time.Now()
			for i := 0; i < n; i++ {
				ref.Tell(benchPing{N: i})
			}
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				return fmt.Errorf("only %d/%d frames arrived", got.Load(), n)
			}
			rate = float64(n) / time.Since(start).Seconds()
			// The outbox is sized to the flood, so nothing deadletters; any
			// loss would show as a hang caught above.
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", name, err)
			os.Exit(1)
		}
		t.AddRow(name, fmt.Sprintf("%.2fk msgs/sec", rate/1e3))
		entries = append(entries, benchEntry{Name: name, Metric: "msgs/sec", Value: rate})
	}
	tn := 20000 / scale
	throughput("remote tell flood (mem transport)", true, tn)
	throughput("remote tell flood (loopback tcp)", false, tn)

	fmt.Print(t)
	return entries
}

// writeRemoteBaseline persists the remote wire entries as the committed
// regression baseline (BENCH_remote.json).
func writeRemoteBaseline(path string, scale int, entries []benchEntry) error {
	doc := struct {
		Note    string       `json:"note"`
		Command string       `json:"command"`
		Scale   int          `json:"scale"`
		Entries []benchEntry `json:"entries"`
	}{
		Note: "Remote actor wire baseline (streaming payload sessions, " +
			"length-prefixed frames). Machine-dependent: compare mem vs tcp " +
			"and ping-pong vs flood ratios, not absolutes.",
		Command: "go run ./cmd/benchtables -remote -json-remote BENCH_remote.json",
		Scale:   scale,
		Entries: entries,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

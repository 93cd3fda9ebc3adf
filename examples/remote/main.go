// Remote actors demo: location transparency end to end. Two nodes exchange
// a ping-pong through ordinary actors.Ref values whose Tell/Ask cross a
// wire; every envelope carries a Lamport timestamp, so afterwards the two
// nodes' wire logs merge into one causal diagram. Then a partition splits
// the nodes mid-traffic: sends deadletter instead of blocking, AskRetry
// rides it out, and the link heals by reconnecting. Run with:
//
//	go run ./examples/remote
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/actors"
	"repro/internal/faults"
	"repro/internal/remote"
	"repro/internal/trace"
)

// Wire payloads: exported fields, registered with remote.RegisterType.
type Ping struct{ N int }
type Pong struct{ N int }

func init() {
	remote.RegisterType(Ping{})
	remote.RegisterType(Pong{})
}

func main() {
	net := remote.NewMemNetwork()
	mk := func(addr string) *remote.Node {
		n, err := remote.NewNode(remote.Config{
			ListenAddr: addr,
			Transport:  net.Endpoint(addr),
			RecordWire: true,
			// Fast heartbeats so the partition demo detects the cut quickly.
			HeartbeatInterval: 5 * time.Millisecond,
			HeartbeatTimeout:  25 * time.Millisecond,
			ReconnectMin:      time.Millisecond,
			ReconnectMax:      20 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	alice, bob := mk("alice"), mk("bob")
	defer alice.Close()
	defer bob.Close()

	fmt.Println("== 1. Ping-pong across nodes ==")
	pong := bob.System().MustSpawn("pong", func(ctx *actors.Context, msg any) {
		if p, ok := msg.(Ping); ok {
			ctx.Reply(Pong{N: p.N})
		}
	})
	bob.Register("pong", pong)

	// An ordinary Ref — Tell and Ask just work; the proxy does the wire.
	ref, err := alice.RefFor("pong@bob")
	if err != nil {
		log.Fatal(err)
	}
	if err := alice.Connect("bob", 2*time.Second); err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		r, err := actors.Ask(alice.System(), ref, Ping{N: i}, 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  alice asked Ping{%d}, got %v\n", i, r)
	}

	fmt.Println("\n== 2. The merged causal diagram (Lamport clocks) ==")
	merged := trace.MergeLamport(alice.LamportLog(), bob.LamportLog())
	fmt.Print(trace.FormatLamport(merged))
	fmt.Println("  (each recv is stamped after the send that caused it: one total order,")
	fmt.Println("   two machines — Lamport's happened-before relation on the wire)")

	fmt.Println("\n== 3. Partition: sends deadletter, AskRetry rides it out ==")
	part := faults.NewPartition()
	net.SetInjector(part)
	part.Cut("alice", "bob")
	fmt.Println("  link alice<->bob cut")

	// Give the heartbeat timeout time to declare the peer dead.
	time.Sleep(60 * time.Millisecond)
	before := alice.System().DeadLettersOf(actors.DLRemote)
	ref.Tell(Ping{N: 99})
	time.Sleep(10 * time.Millisecond)
	fmt.Printf("  Tell during partition: DLRemote deadletters %d -> %d (send did not block)\n",
		before, alice.System().DeadLettersOf(actors.DLRemote))

	// AskRetry keeps retrying through the outage; heal mid-retry.
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err := actors.AskRetry(alice.System(), ref, Ping{N: 100}, actors.RetryConfig{
			Attempts: 100,
			Timeout:  20 * time.Millisecond,
			Backoff:  2 * time.Millisecond,
			Jitter:   0.3,
			Seed:     7,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  AskRetry survived the partition: got %v\n", r)
	}()
	time.Sleep(30 * time.Millisecond)
	part.HealAll()
	fmt.Println("  link healed; reconnecting...")
	<-done

	st := alice.Stats()
	fmt.Printf("\n  alice wire stats: sent=%d reconnects=%d heartbeat-timeouts=%d\n",
		st.Sent, st.Reconnects, st.HeartbeatTimeouts)
	fmt.Printf("  partition dropped %d frames\n", part.Dropped())
}

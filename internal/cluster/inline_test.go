package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/actors"
	"repro/internal/remote"
)

// Wedge parks the grain that receives it until the test releases it.
type Wedge struct{}

func init() { remote.RegisterType(Wedge{}) }

// TestInlineRoutingNeverBlocksReader wedges one grain behind a bounded
// MailboxBlock mailbox and keeps forwarding to it. Forwarded messages are
// routed on the owner's wire reader, so a delivery that waited for room
// would stall everything else on the connection. Instead, the wedged grain's
// overflow must be shed and counted, forwarded asks to another grain on the
// same connection must keep completing, and heartbeats must keep the link up
// for several heartbeat timeouts.
func TestInlineRoutingNeverBlocksReader(t *testing.T) {
	const (
		mailboxCap = 4
		hbTimeout  = 100 * time.Millisecond
	)
	release := make(chan struct{})
	factory := func(addr string) GrainFactory {
		return func(name string) actors.Behavior {
			return func(ctx *actors.Context, msg any) {
				switch msg.(type) {
				case Wedge:
					<-release
				case WhoAmI:
					ctx.Reply(HostedAt{Grain: name, Node: addr})
				}
			}
		}
	}
	addrs := []string{"n1", "n2"}
	f := startCluster(t, addrs, factory, func(c *Config) {
		// Two workers: the wedged handler holds one, and the other grain
		// must still have somewhere to run whatever GOMAXPROCS is.
		sys := actors.NewSystem(actors.Config{
			MailboxCap: mailboxCap, MailboxPolicy: actors.MailboxBlock, PoolSize: 2,
		})
		t.Cleanup(sys.Shutdown) // runs after the fixture closes its nodes
		c.System = sys
		c.HeartbeatInterval = 5 * time.Millisecond
		c.HeartbeatTimeout = hbTimeout
		c.SuspectAfter = time.Second
	})
	defer close(release)
	waitUntil(t, 5*time.Second, "membership convergence", f.converged)
	c1, c2 := f.nodes["n1"], f.nodes["n2"]

	// Two grains owned by n2, so every message to them from n1 is forwarded
	// over n1's one link to n2 and routed by the same reader on n2.
	var owned []string
	for i := 0; len(owned) < 2; i++ {
		name := fmt.Sprintf("grain-%d", i)
		if owner, _ := c1.OwnerOf(name); owner == "n2" {
			owned = append(owned, name)
		}
	}
	wedged, free := c1.RefFor(owned[0]), c1.RefFor(owned[1])
	for _, ref := range []*actors.Ref{wedged, free} {
		if _, err := actors.AskRetry(c1.System(), ref, WhoAmI{}, testRetry); err != nil {
			t.Fatalf("activating %s: %v", ref.Name(), err)
		}
	}
	timeoutsBefore := c1.Node().Stats().HeartbeatTimeouts
	refusedBefore := c2.CounterSnapshot().ParkedShed

	// One Wedge occupies the handler; the rest fill the mailbox and overflow.
	const offered = 4 * mailboxCap
	wedged.Tell(Wedge{})
	for i := 0; i < offered; i++ {
		wedged.Tell(WhoAmI{})
	}
	waitUntil(t, 5*time.Second, "the wedged grain's overflow to be shed", func() bool {
		return c2.CounterSnapshot().InboundShed > 0
	})

	// The reader is still routing: asks to the other grain complete while
	// the wedge holds, for several heartbeat timeouts.
	start := time.Now()
	asks := 0
	for time.Since(start) < 4*hbTimeout || asks < 20 {
		rep, err := actors.Ask(c1.System(), free, WhoAmI{}, 2*time.Second)
		if err != nil {
			t.Fatalf("ask %d to %s with %s wedged: %v", asks, owned[1], owned[0], err)
		}
		if at, ok := rep.(HostedAt); !ok || at.Node != "n2" {
			t.Fatalf("ask %d replied %#v", asks, rep)
		}
		asks++
	}

	if got := c1.Node().Stats().HeartbeatTimeouts - timeoutsBefore; got != 0 {
		t.Fatalf("%d heartbeat timeouts on n1 while a grain on n2 was wedged", got)
	}
	for _, l := range c1.Node().Links() {
		if l.Peer == "n2" && l.State != "up" {
			t.Fatalf("n1's link to n2 is %s while a grain on n2 was wedged", l.State)
		}
	}
	// Every shed is one overload deadletter on n2: the overflow was
	// refused where it landed, not parked or retried behind the wedge.
	shed := c2.CounterSnapshot().InboundShed
	if dl := c2.System().DeadLettersOf(actors.DLOverloaded); dl != shed {
		t.Fatalf("%d forwarded messages counted shed, %d overload deadletters", shed, dl)
	}
	if refused := c2.CounterSnapshot().ParkedShed - refusedBefore; refused != 0 {
		t.Fatalf("%d forwarded messages refused by routing; only the full mailbox should refuse", refused)
	}
}

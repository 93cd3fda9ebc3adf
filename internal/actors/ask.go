package actors

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ErrAskTimeout is returned by Ask when no reply arrives in time.
var ErrAskTimeout = errors.New("actors: ask timed out")

// ErrActorStopped is returned by Ask when the target actor is already
// stopped, or the Ref is nil or belongs to another system: the request
// deadletters immediately, so instead of waiting out the full timeout the
// ask fails fast, and its reply slot closes with it. (A supervised actor in
// a restart backoff is *not* stopped — its mailbox keeps accepting
// messages.)
var ErrActorStopped = errors.New("actors: target actor is stopped")

// ErrPeerUnreachable is returned by Ask when the target is a proxy (remote)
// Ref whose forwarding path refused the request — the peer's link is down or
// its outbox is full. The ask fails fast like ErrActorStopped, but the
// condition is transient: the peer may reconnect, so AskRetry treats it as
// retryable and keeps backing off until the link heals or the budget runs
// out.
var ErrPeerUnreachable = errors.New("actors: remote peer unreachable")

// ErrOverloaded is returned by Ask when admission control shed the request:
// the target's bounded mailbox was full under a shedding policy, or the
// remote link's outbox/credit window had no room. Like ErrPeerUnreachable it
// is transient — the backlog drains — so AskRetry retries it with backoff
// rather than failing the call.
var ErrOverloaded = errors.New("actors: target overloaded")

// ErrShardMoving is returned by Ask when the target grain's shard is
// mid-handoff between cluster nodes (internal/cluster) and the request could
// be neither delivered nor buffered. Transient by construction: the
// rebalance completes and the next resolve finds the new owner, so AskRetry
// treats it exactly like ErrOverloaded — retried with backoff, never
// fail-fast.
var ErrShardMoving = errors.New("actors: target shard is moving")

// Ask sends msg to ref and waits for one reply, bridging the asynchronous
// actor world to synchronous callers (Scala's `!?` / ask pattern). The reply
// lands in a reply slot, not an actor: a Ref named "ask-reply" with no
// goroutine or mailbox that accepts one message while the ask waits. If the
// target is already stopped the call fails fast with ErrActorStopped rather
// than waiting out the timeout. A message lost to an injected fault is
// indistinguishable from a slow reply and still times out — that is what
// AskRetry is for.
func Ask(sys *System, ref *Ref, msg any, timeout time.Duration) (any, error) {
	return askCtx(context.Background(), sys, ref, msg, timeout)
}

// askErr maps a failed send to Ask's fail-fast error; a delivered or
// fault-dropped request leaves the ask waiting (nil).
var askErr = [...]error{
	statusDead:        ErrActorStopped,
	statusUnreachable: ErrPeerUnreachable,
	statusOverloaded:  ErrOverloaded,
	statusMoving:      ErrShardMoving,
}

// askCtx is Ask with a context: a cancelled ctx abandons the wait
// immediately and returns ctx.Err(). However the wait ends, the slot closes,
// so a second or late reply deadletters.
func askCtx(ctx context.Context, sys *System, ref *Ref, msg any, timeout time.Duration) (any, error) {
	if sys.stopped.Load() {
		return nil, ErrSystemStopped
	}
	if ref == nil || ref.sys != sys {
		return nil, ErrActorStopped
	}
	slot := sys.openSlot()
	if err := askErr[sys.send(ref, Envelope{Msg: msg, Sender: &slot.ref})]; err != nil {
		slot.close()
		return nil, err
	}
	return slot.await(ctx, timeout)
}

// RetryConfig shapes AskRetry's persistence.
type RetryConfig struct {
	// Attempts is the maximum number of asks (default 3, minimum 1).
	Attempts int
	// Timeout is the per-attempt reply timeout (default 1s).
	Timeout time.Duration
	// Backoff is the sleep before the second attempt; it doubles per retry
	// (default 1ms when unset and Attempts > 1).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 250ms).
	MaxBackoff time.Duration
	// Jitter randomizes each backoff by ±Jitter fraction (e.g. 0.2 → ±20%),
	// de-synchronizing retry storms. Zero means no jitter.
	Jitter float64
	// Budget, when positive, caps the total wall-clock time across all
	// attempts and backoffs; when it runs out AskRetry stops retrying.
	Budget time.Duration
	// Seed makes the jitter deterministic (0 uses a fixed default seed).
	Seed int64
}

func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.Attempts < 1 {
		rc.Attempts = 3
	}
	if rc.Timeout <= 0 {
		rc.Timeout = time.Second
	}
	if rc.Backoff <= 0 && rc.Attempts > 1 {
		rc.Backoff = time.Millisecond
	}
	if rc.MaxBackoff <= 0 {
		rc.MaxBackoff = 250 * time.Millisecond
	}
	return rc
}

// AskRetry is Ask with a retry budget: timeouts are retried with jittered
// exponential backoff until a reply arrives, attempts are exhausted, or the
// wall-clock budget runs out. It is the at-least-once delivery layer that
// makes lossy (fault-injected) message paths usable: receivers must treat
// retried requests idempotently. ErrActorStopped is not retried — a stopped
// actor will not come back as the same Ref. ErrPeerUnreachable,
// ErrOverloaded, and ErrShardMoving *are* retried: a partitioned peer can
// heal, an overloaded target drains its backlog, and a moving shard lands on
// its new owner — the backoff schedule is exactly what rides out all three.
func AskRetry(sys *System, ref *Ref, msg any, rc RetryConfig) (any, error) {
	return AskRetryCtx(context.Background(), sys, ref, msg, rc)
}

// AskRetryCtx is AskRetry bounded by a context. Cancellation is honored
// everywhere the call can linger: between backoff sleeps (a cancelled ctx
// no longer burns the remaining retry budget asleep), while waiting out an
// attempt's reply timeout, and before each new attempt. It returns ctx.Err()
// as soon as the cancellation is observed.
func AskRetryCtx(ctx context.Context, sys *System, ref *Ref, msg any, rc RetryConfig) (any, error) {
	rc = rc.withDefaults()
	var rng *rand.Rand // seeded on the first jittered backoff
	start := time.Now()
	backoff := rc.Backoff
	var lastErr error
	for attempt := 1; attempt <= rc.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 1 {
			d := backoff
			if rc.Jitter > 0 {
				if rng == nil {
					rng = rand.New(rand.NewSource(rc.Seed + 0x5eed))
				}
				// Scale by a uniform factor in [1-Jitter, 1+Jitter].
				f := 1 + rc.Jitter*(2*rng.Float64()-1)
				d = time.Duration(float64(d) * f)
			}
			if rc.Budget > 0 && time.Since(start)+d > rc.Budget {
				break
			}
			if err := sleepCtx(ctx, d); err != nil {
				return nil, err
			}
			backoff *= 2
			if backoff > rc.MaxBackoff {
				backoff = rc.MaxBackoff
			}
		}
		timeout := rc.Timeout
		if rc.Budget > 0 {
			if left := rc.Budget - time.Since(start); left <= 0 {
				break
			} else if left < timeout {
				timeout = left
			}
		}
		r, err := askCtx(ctx, sys, ref, msg, timeout)
		if err == nil {
			return r, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		if errors.Is(err, ErrActorStopped) || errors.Is(err, ErrSystemStopped) {
			return nil, err
		}
	}
	if lastErr == nil {
		lastErr = ErrAskTimeout
	}
	return nil, fmt.Errorf("actors: ask retry budget exhausted: %w", lastErr)
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

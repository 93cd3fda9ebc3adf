package remote

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"time"
)

// Deterministic record/replay of distributed runs over MemNetwork.
//
// A recording is the pair (fault-injector seed, global wire schedule): the
// seed lets the harness rebuild the exact same workload and injector, and
// the schedule pins the one remaining source of nondeterminism the seed does
// not cover — the interleaving of application frames across links. Control
// frames (hello, heartbeat, credit, gossip) are liveness machinery, not
// causality: they are neither recorded nor scheduled, so replays stay live
// even when their timing differs.
//
// Record mode taps memConn.Send after the fault injector has decided each
// frame's fate, capturing (src, dst, dropped, content) per application frame
// in global arrival order — content being a payload fingerprint stamped into
// the frame header by the sending node while a recording or replay is active
// (see WireEnvelope.Content). Replay mode replaces the injector entirely and
// holds each link to its recorded schedule two ways:
//
//   - Fates: each application frame consumes its link's next recorded fate
//     and either delivers or re-drops exactly as recorded.
//   - Content order: when the recording carries content IDs, a frame that
//     arrives ahead of its recorded slot on its link is *held* — buffered by
//     the replayer and released, in recorded order, once the frames scheduled
//     before it have passed. This pins same-link frame content order, not
//     just per-link drop patterns: a re-execution whose sends race onto the
//     link in a different order is forced back into the recorded sequence.
//
// Both mechanisms fail open to keep slightly-divergent replays live: a frame
// whose content the remaining schedule does not know delivers unscheduled, a
// link past its schedule extends its final recorded fate, a link the
// recording never saw delivers, and a held frame whose turn never comes is
// flushed after replayStallTimeout (the link then runs unscheduled).
// Blocking the sender was rejected by design: one writer at a time, holding
// the link's write lock, serves a link's whole outbox, so parking it would
// deadlock the very frames the schedule is waiting for.

// WireEntry is one recorded application-frame send.
type WireEntry struct {
	Src  string `json:"src"`
	Dst  string `json:"dst"`
	Drop bool   `json:"drop,omitempty"`
	// Content is the frame's payload fingerprint (WireEnvelope.Content);
	// zero in recordings made before content pinning, which replay with
	// per-link fates only.
	Content uint64 `json:"content,omitempty"`
}

// WireRecording is a replayable capture of one MemNetwork run: the fault
// seed the workload ran under plus the global application-frame schedule.
// Safe for concurrent appends (several links record into one schedule).
type WireRecording struct {
	mu      sync.Mutex
	Seed    int64       `json:"seed"`
	Entries []WireEntry `json:"entries"`
}

// NewWireRecording returns an empty recording carrying the workload seed.
func NewWireRecording(seed int64) *WireRecording { return &WireRecording{Seed: seed} }

func (r *WireRecording) add(e WireEntry) {
	r.mu.Lock()
	r.Entries = append(r.Entries, e)
	r.mu.Unlock()
}

// Len returns the number of recorded application frames.
func (r *WireRecording) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.Entries)
}

// Drops returns how many recorded frames were dropped by the injector.
func (r *WireRecording) Drops() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.Entries {
		if e.Drop {
			n++
		}
	}
	return n
}

// Snapshot returns a copy safe to replay while the original keeps recording.
func (r *WireRecording) Snapshot() *WireRecording {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &WireRecording{Seed: r.Seed, Entries: append([]WireEntry(nil), r.Entries...)}
}

// Save writes the recording as JSON to path.
func (r *WireRecording) Save(path string) error {
	r.mu.Lock()
	data, err := json.MarshalIndent(struct {
		Seed    int64       `json:"seed"`
		Entries []WireEntry `json:"entries"`
	}{r.Seed, r.Entries}, "", " ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadWireRecording reads a recording written by Save.
func LoadWireRecording(path string) (*WireRecording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out struct {
		Seed    int64       `json:"seed"`
		Entries []WireEntry `json:"entries"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("remote: load recording %s: %w", path, err)
	}
	return &WireRecording{Seed: out.Seed, Entries: out.Entries}, nil
}

// replayStallTimeout bounds how long a held frame waits for its recorded
// turn before the replayer gives up on the link's schedule and fails open —
// a divergent re-execution must degrade to an unscheduled run, never hang.
const replayStallTimeout = 2 * time.Second

// replayVerdict is gateContent's decision for one frame.
type replayVerdict int

const (
	// replayDeliver: hand the frame to the receiver now.
	replayDeliver replayVerdict = iota
	// replayDrop: re-apply the recorded drop; the frame vanishes.
	replayDrop
	// replayHeld: the frame arrived ahead of its recorded slot; the
	// replayer copied it and will emit it when its turn comes. The caller
	// is done with it.
	replayHeld
)

// heldFrame is one frame parked in a link's reorder buffer, with the emit
// function that delivers (or drops) it on the owning connection.
type heldFrame struct {
	content uint64
	buf     []byte
	emit    func(buf []byte, drop bool)
}

// linkSched is one link's recorded schedule plus its reorder state.
type linkSched struct {
	entries []WireEntry
	pos     int
	content bool        // entries carry content IDs → order pinning active
	held    []heldFrame // early arrivals, in arrival order
	open    bool        // stall flushed this link; it now runs unscheduled
	timer   *time.Timer // stall watchdog, armed while frames are held
}

// Replayer forces a MemNetwork's application frames through a recorded
// schedule: per-link drop fates always, per-link content order when the
// recording carries content IDs. One instance serves all links of one
// network.
type Replayer struct {
	mu    sync.Mutex
	links map[string]*linkSched
	total int
}

// NewReplayer builds a replayer for rec.
func NewReplayer(rec *WireRecording) *Replayer {
	links := make(map[string]*linkSched)
	total := 0
	for _, e := range rec.Snapshot().Entries {
		key := e.Src + "->" + e.Dst
		s := links[key]
		if s == nil {
			s = &linkSched{}
			links[key] = s
		}
		s.entries = append(s.entries, e)
		if e.Content != 0 {
			s.content = true
		}
		total++
	}
	return &Replayer{links: links, total: total}
}

// Pos reports replay progress: scheduled fates consumed so far and total.
// Consumption past a link's schedule (extended fates) does not advance it.
func (r *Replayer) Pos() (consumed, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.links {
		consumed += s.pos
	}
	return consumed, r.total
}

// Held reports how many frames are currently parked in reorder buffers —
// zero once a replay has quiesced, unless it diverged and is waiting out a
// stall flush.
func (r *Replayer) Held() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.links {
		n += len(s.held)
	}
	return n
}

// gate consumes the next recorded fate for (src, dst) and reports whether
// the frame must be dropped — the content-blind path, used for frames (or
// recordings) without content IDs. Past the end of a link's schedule the
// link's final fate repeats; a link with no recorded frames delivers.
func (r *Replayer) gate(src, dst string) (drop bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gateLocked(r.links[src+"->"+dst])
}

func (r *Replayer) gateLocked(s *linkSched) (drop bool) {
	if s == nil || len(s.entries) == 0 {
		return false
	}
	if s.pos >= len(s.entries) {
		return s.entries[len(s.entries)-1].Drop
	}
	drop = s.entries[s.pos].Drop
	s.pos++
	return drop
}

// heldRelease is one reorder-buffer frame whose turn arrived, carried out of
// the lock so emission never runs under it.
type heldRelease struct {
	buf  []byte
	drop bool
	emit func(buf []byte, drop bool)
}

// gateContent schedules one application frame: the verdict says what the
// caller does with *this* frame, and followup (possibly nil) emits any held
// frames this arrival released — the caller must run it *after* acting on
// the verdict, so releases land behind the frame that unblocked them.
//
// emit is retained when the frame is held: the replayer copies the frame
// into a pooled buffer (the caller's buffer is reused immediately) and calls
// emit from whichever goroutine later releases it.
func (r *Replayer) gateContent(src, dst string, content uint64, frame []byte, emit func(buf []byte, drop bool)) (replayVerdict, func()) {
	key := src + "->" + dst
	r.mu.Lock()
	s := r.links[key]
	if s == nil || len(s.entries) == 0 || s.open {
		r.mu.Unlock()
		return replayDeliver, nil // unscheduled or failed-open link
	}
	if !s.content || content == 0 {
		// Content-blind: recorded fates in FIFO order, exactly the pre-
		// content semantics.
		drop := r.gateLocked(s)
		r.mu.Unlock()
		if drop {
			return replayDrop, nil
		}
		return replayDeliver, nil
	}
	if s.pos >= len(s.entries) {
		drop := s.entries[len(s.entries)-1].Drop
		r.mu.Unlock()
		if drop {
			return replayDrop, nil
		}
		return replayDeliver, nil
	}
	if s.entries[s.pos].Content == content {
		// On schedule: consume this slot, then see whether held frames fill
		// the slots behind it.
		drop := s.entries[s.pos].Drop
		s.pos++
		released := s.releaseLocked()
		s.rearmStall(r, key)
		r.mu.Unlock()
		fu := emitReleases(released)
		if drop {
			return replayDrop, fu
		}
		return replayDeliver, fu
	}
	if s.scheduledLocked(content) {
		// Early arrival: its slot is later in the schedule. Park a copy.
		buf := getFrame(len(frame))
		copy(buf, frame)
		s.held = append(s.held, heldFrame{content: content, buf: buf, emit: emit})
		s.rearmStall(r, key)
		r.mu.Unlock()
		return replayHeld, nil
	}
	// Content the remaining schedule does not know: a divergent
	// re-execution produced a frame the recording never saw. Deliver
	// without consuming a slot (fail-open).
	r.mu.Unlock()
	return replayDeliver, nil
}

// scheduledLocked reports whether an *unclaimed* slot for content remains in
// the pending schedule: occurrences from pos on, minus frames already held
// with the same content (identical payloads are interchangeable, but each
// held frame claims one slot).
func (s *linkSched) scheduledLocked(content uint64) bool {
	want := 0
	for _, e := range s.entries[s.pos:] {
		if e.Content == content {
			want++
		}
	}
	if want == 0 {
		return false
	}
	for _, h := range s.held {
		if h.content == content {
			want--
		}
	}
	return want > 0
}

// releaseLocked advances the schedule through every slot a held frame can
// fill, in recorded order, returning the releases for emission outside the
// lock.
func (s *linkSched) releaseLocked() []heldRelease {
	var out []heldRelease
	for s.pos < len(s.entries) {
		want := s.entries[s.pos].Content
		idx := -1
		for i, h := range s.held {
			if h.content == want {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		h := s.held[idx]
		s.held = append(s.held[:idx], s.held[idx+1:]...)
		out = append(out, heldRelease{buf: h.buf, drop: s.entries[s.pos].Drop, emit: h.emit})
		s.pos++
	}
	return out
}

// rearmStall resets the link's stall watchdog: armed while frames are held,
// quiet otherwise. Callers hold r.mu.
func (s *linkSched) rearmStall(r *Replayer, key string) {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if len(s.held) > 0 {
		s.timer = time.AfterFunc(replayStallTimeout, func() { r.stallFlush(key) })
	}
}

// stallFlush fails a stuck link open: every held frame is delivered (in
// arrival order — the recorded order is unreachable, that is the stall) and
// the link runs unscheduled from here on. Liveness over fidelity.
func (r *Replayer) stallFlush(key string) {
	r.mu.Lock()
	s := r.links[key]
	if s == nil || len(s.held) == 0 {
		if s != nil {
			s.timer = nil
		}
		r.mu.Unlock()
		return
	}
	held := s.held
	s.held = nil
	s.open = true
	s.timer = nil
	r.mu.Unlock()
	for _, h := range held {
		h.emit(h.buf, false)
	}
}

// emitReleases wraps a release batch as the followup the gate caller runs
// after its own frame lands; nil when nothing was released.
func emitReleases(rel []heldRelease) func() {
	if len(rel) == 0 {
		return nil
	}
	return func() {
		for _, h := range rel {
			h.emit(h.buf, h.drop)
		}
	}
}

// contentHash fingerprints one outbound message for the replay schedule:
// destination (name or raw ID) plus the payload's formatted value. Retried
// sends of an identical payload to the same target hash alike — deliberately:
// identical frames are interchangeable in the schedule, and tying the hash to
// ephemeral sender IDs would make re-executions diverge for no reason. Zero
// is reserved for "no fingerprint", so a hash that lands there is nudged.
func contentHash(name string, id uint64, payload any) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, name)
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], id)
	_, _ = h.Write(idb[:])
	_, _ = fmt.Fprintf(h, "%v", payload)
	sum := h.Sum64()
	if sum == 0 {
		sum = 1
	}
	return sum
}

// msgFrameInfo classifies one frame by its header and extracts its content
// fingerprint: (true, content) for application messages, (false, 0) for
// control traffic. A message whose header does not parse yields content 0
// and is scheduled content-blind.
func msgFrameInfo(frame []byte) (bool, uint64) {
	if len(frame) == 0 || FrameKind(frame[0]) != FrameMsg {
		return false, 0
	}
	var w WireEnvelope
	if _, err := decodeEnvelopeInto(&w, frame, nil); err != nil {
		return true, 0
	}
	return true, w.Content
}

// isMsgFrame reports whether frame carries an application message.
func isMsgFrame(frame []byte) bool {
	ok, _ := msgFrameInfo(frame)
	return ok
}

// --- ambient record/replay ---------------------------------------------------

// The CLI binaries' -record/-replay flags need to reach MemNetworks that
// workloads construct internally, where no flag can. Like
// actors.SetDefaultRecorder, these install process-wide defaults adopted by
// every subsequent NewMemNetwork; libraries and tests should call
// MemNetwork.Record / MemNetwork.Replay directly.
var (
	ambientWireMu    sync.Mutex
	ambientRecording *WireRecording
	ambientReplay    *WireRecording
)

// SetAmbientRecording makes every subsequent NewMemNetwork record into rec
// (nil restores the default). Multiple networks share the one schedule;
// typical CLI runs construct exactly one.
func SetAmbientRecording(rec *WireRecording) {
	ambientWireMu.Lock()
	defer ambientWireMu.Unlock()
	ambientRecording = rec
}

// SetAmbientReplay makes every subsequent NewMemNetwork replay rec (nil
// restores the default).
func SetAmbientReplay(rec *WireRecording) {
	ambientWireMu.Lock()
	defer ambientWireMu.Unlock()
	ambientReplay = rec
}

func ambientWire() (rec, rep *WireRecording) {
	ambientWireMu.Lock()
	defer ambientWireMu.Unlock()
	return ambientRecording, ambientReplay
}

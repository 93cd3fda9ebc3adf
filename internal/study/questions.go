package study

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/pseudocode"
)

// sharedSrc is the instrumented shared-memory single-lane bridge used by
// the shared-memory section of Test 1 (Figure 6's program). Per-car flags
// record method returns so questions about "has returned from redEnter"
// are state-reachability questions.
const sharedSrc = `
redOnBridge = 0
blueOnBridge = 0
crossed = 0
aEntered = 0
aExited = 0
bEntered = 0
bExited = 0
cEntered = 0
cExited = 0

DEFINE redEnter()
    EXC_ACC
        WHILE blueOnBridge > 0
            WAIT()
        ENDWHILE
        redOnBridge = redOnBridge + 1
    END_EXC_ACC
ENDDEF

DEFINE redExit()
    EXC_ACC
        redOnBridge = redOnBridge - 1
        crossed = crossed + 1
        NOTIFY()
    END_EXC_ACC
ENDDEF

DEFINE blueEnter()
    EXC_ACC
        WHILE redOnBridge > 0
            WAIT()
        ENDWHILE
        blueOnBridge = blueOnBridge + 1
    END_EXC_ACC
ENDDEF

DEFINE blueExit()
    EXC_ACC
        blueOnBridge = blueOnBridge - 1
        crossed = crossed + 1
        NOTIFY()
    END_EXC_ACC
ENDDEF

DEFINE redRunA()
    redEnter()
    aEntered = 1
    redExit()
    aExited = 1
ENDDEF

DEFINE redRunB()
    redEnter()
    bEntered = 1
    redExit()
    bExited = 1
ENDDEF

DEFINE blueRunC()
    blueEnter()
    cEntered = 1
    blueExit()
    cExited = 1
ENDDEF

PARA
    redRunA()
    redRunB()
    blueRunC()
ENDPARA
`

// messageSrc is the instrumented message-passing bridge used by the
// message-passing section (Figure 7's program). Cars record protocol
// progress in their fields.
const messageSrc = `
crossed = 0

CLASS Bridge
    DEFINE init()
        self.red = 0
        self.blue = 0
    ENDDEF
    DEFINE start
        ON_RECEIVING
            MESSAGE.redEnter(car)
                IF blue > 0 THEN
                    Send(MESSAGE.redEnter(car)).To(self)
                ELSE
                    red = red + 1
                    Send(MESSAGE.succeedEnter(red)).To(car)
                ENDIF
            MESSAGE.redExit(car)
                red = red - 1
                Send(MESSAGE.succeedExit(red)).To(car)
            MESSAGE.blueEnter(car)
                IF red > 0 THEN
                    Send(MESSAGE.blueEnter(car)).To(self)
                ELSE
                    blue = blue + 1
                    Send(MESSAGE.succeedEnter(blue)).To(car)
                ENDIF
            MESSAGE.blueExit(car)
                blue = blue - 1
                Send(MESSAGE.succeedExit(blue)).To(car)
    ENDDEF
ENDCLASS

CLASS Car
    DEFINE init(carname)
        self.carname = carname
        self.entered = 0
        self.exitSent = 0
        self.exited = 0
    ENDDEF
    DEFINE startRed
        Send(MESSAGE.redEnter(self)).To(bridge)
        ON_RECEIVING
            MESSAGE.succeedEnter(n)
                self.entered = 1
                self.exitSent = 1
                Send(MESSAGE.redExit(self)).To(bridge)
            MESSAGE.succeedExit(n)
                self.exited = 1
                crossed = crossed + 1
    ENDDEF
    DEFINE startBlue
        Send(MESSAGE.blueEnter(self)).To(bridge)
        ON_RECEIVING
            MESSAGE.succeedEnter(n)
                self.entered = 1
                self.exitSent = 1
                Send(MESSAGE.blueExit(self)).To(bridge)
            MESSAGE.succeedExit(n)
                self.exited = 1
                crossed = crossed + 1
    ENDDEF
ENDCLASS

bridge = new Bridge()
bridge.init()

redCarA = new Car()
redCarA.init("redCarA")
redCarB = new Car()
redCarB.init("redCarB")
blueCarA = new Car()
blueCarA.init("blueCarA")

PARA
    bridge.start()
    redCarA.startRed()
    redCarB.startRed()
    blueCarA.startBlue()
ENDPARA
`

// Question is one Test-1 item: "could this happen?" with a YES/NO ground
// truth derived from exhaustive exploration.
type Question struct {
	ID        string
	Section   Section
	Text      string
	Truth     bool   // ground truth (YES = true)
	Complex   bool   // large execution space: a [U1] uncertainty target
	FlippedBy []Code // misconceptions that flip the student's answer

	pred func(w *pseudocode.World) bool
}

// Bank is the full two-section question set with computed ground truths.
type Bank struct {
	Questions []Question
}

// BySection returns the questions of one section.
func (b *Bank) BySection(s Section) []Question {
	var out []Question
	for _, q := range b.Questions {
		if q.Section == s {
			out = append(out, q)
		}
	}
	return out
}

// intGlobal reads an integer global, defaulting to 0.
func intGlobal(w *pseudocode.World, name string) int64 {
	if v, ok := w.GetGlobal(name).(pseudocode.IntV); ok {
		return int64(v)
	}
	return 0
}

// carField reads an integer field from the Car object whose carname field
// matches name.
func carField(w *pseudocode.World, carName, field string) int64 {
	for _, o := range w.ObjectsByClass("Car") {
		if n, ok := o.Field("carname").(pseudocode.StrV); ok && string(n) == carName {
			if v, ok := o.Field(field).(pseudocode.IntV); ok {
				return int64(v)
			}
			return 0
		}
	}
	return 0
}

func bridgeField(w *pseudocode.World, field string) int64 {
	bs := w.ObjectsByClass("Bridge")
	if len(bs) == 0 {
		return 0
	}
	if v, ok := bs[0].Field(field).(pseudocode.IntV); ok {
		return int64(v)
	}
	return 0
}

// questionDefs builds the bank skeleton; truths are filled by exploration.
func questionDefs() []Question {
	return []Question{
		// --- Shared memory section ---
		{
			ID: "SM1", Section: SharedMemory,
			Text:      "Can redCarA and redCarB both be on the bridge at the same time?",
			FlippedBy: []Code{"S5"},
			pred: func(w *pseudocode.World) bool {
				return intGlobal(w, "redOnBridge") == 2
			},
		},
		{
			ID: "SM2", Section: SharedMemory,
			Text: "Can a red car and the blue car both be on the bridge at the same time?",
			pred: func(w *pseudocode.World) bool {
				return intGlobal(w, "redOnBridge") > 0 && intGlobal(w, "blueOnBridge") > 0
			},
		},
		{
			ID: "SM3", Section: SharedMemory,
			Text:      "While redCarA is executing inside redEnter (called, not returned, not waiting), can redCarB also be executing inside redEnter?",
			FlippedBy: []Code{"S7"},
			pred: func(w *pseudocode.World) bool {
				inside := 0
				for _, t := range w.Tasks {
					if t.Done || t.Waiting() {
						continue
					}
					if t.InFunction("redEnter") {
						inside++
					}
				}
				return inside >= 2
			},
		},
		{
			ID: "SM4", Section: SharedMemory,
			Text: "Can redCarB return from redEnter before redCarA does?",
			// S7 ("redCarA has not returned from redEnter so it must still
			// hold the lock" — a direct quote the paper reports) and the
			// order-conflating codes all force a NO here.
			FlippedBy: []Code{"S7", "S1", "S4"},
			pred: func(w *pseudocode.World) bool {
				return intGlobal(w, "bEntered") == 1 && intGlobal(w, "aEntered") == 0
			},
		},
		{
			ID: "SM5", Section: SharedMemory,
			Text:      "While blueCarA is on the bridge, can a red car be suspended in WAIT() inside redEnter (holding no access)?",
			FlippedBy: []Code{"S5", "S3"},
			pred: func(w *pseudocode.World) bool {
				if intGlobal(w, "blueOnBridge") == 0 {
					return false
				}
				for _, t := range w.Tasks {
					if !t.Done && t.Waiting() && t.InFunction("redEnter") {
						return true
					}
				}
				return false
			},
		},
		{
			ID: "SM6", Section: SharedMemory,
			Text: "Can both red cars be suspended in WAIT() at the same time (and then both be woken by one NOTIFY)?",
			// An S5 student places the second red car at the lock, not in
			// WAIT, so both-waiting reads as impossible.
			FlippedBy: []Code{"S6", "S5"},
			pred: func(w *pseudocode.World) bool {
				waiting := 0
				for _, t := range w.Tasks {
					if !t.Done && t.Waiting() && t.InFunction("redEnter") {
						waiting++
					}
				}
				return waiting >= 2
			},
		},
		{
			ID: "SM7", Section: SharedMemory, Complex: true,
			Text: "Can the program finish with fewer than three crossings?",
			pred: func(w *pseudocode.World) bool {
				return w.Classify() == pseudocode.Completed && intGlobal(w, "crossed") != 3
			},
		},
		{
			ID: "SM8", Section: SharedMemory, Complex: true,
			Text:      "Can the system deadlock?",
			FlippedBy: []Code{"S6"},
			pred: func(w *pseudocode.World) bool {
				return w.Classify() == pseudocode.Deadlocked
			},
		},
		// --- Message passing section ---
		{
			ID: "MP1", Section: MessagePassing,
			Text:      "Can redCarB receive succeedEnter before redCarA receives one?",
			FlippedBy: []Code{"M5"},
			pred: func(w *pseudocode.World) bool {
				return carField(w, "redCarB", "entered") == 1 && carField(w, "redCarA", "entered") == 0
			},
		},
		{
			ID: "MP2", Section: MessagePassing,
			Text:      "Can the bridge have granted a red car entry while neither red car has received its succeedEnter yet?",
			FlippedBy: []Code{"M4"},
			pred: func(w *pseudocode.World) bool {
				return bridgeField(w, "red") > 0 &&
					carField(w, "redCarA", "entered") == 0 &&
					carField(w, "redCarB", "entered") == 0
			},
		},
		{
			ID: "MP3", Section: MessagePassing,
			Text:      "Can redCarB send redExit before redCarA has sent its redExit?",
			FlippedBy: []Code{"M3"},
			pred: func(w *pseudocode.World) bool {
				return carField(w, "redCarB", "exitSent") == 1 && carField(w, "redCarA", "exitSent") == 0
			},
		},
		{
			ID: "MP4", Section: MessagePassing,
			Text:      "Can blueCarA complete its crossing before either red car has entered the bridge?",
			FlippedBy: []Code{"M1"},
			pred: func(w *pseudocode.World) bool {
				return carField(w, "blueCarA", "exited") == 1 &&
					carField(w, "redCarA", "entered") == 0 &&
					carField(w, "redCarB", "entered") == 0
			},
		},
		{
			ID: "MP5", Section: MessagePassing, Complex: true,
			Text: "Can the bridge process redCarA's redExit before redCarA's redEnter?",
			pred: func(w *pseudocode.World) bool {
				// redExit is only ever sent after succeedEnter is received,
				// so bridge red-count below zero would be the witness.
				return bridgeField(w, "red") < 0
			},
		},
		{
			ID: "MP6", Section: MessagePassing,
			Text: "Can a red car and the blue car both be granted the bridge at the same time?",
			pred: func(w *pseudocode.World) bool {
				return bridgeField(w, "red") > 0 && bridgeField(w, "blue") > 0
			},
		},
		{
			ID: "MP7", Section: MessagePassing,
			Text:      "Can a car's send block because the bridge is busy?",
			FlippedBy: []Code{"M3"},
			pred: func(w *pseudocode.World) bool {
				for _, t := range w.Tasks {
					if !t.Done && t.BlockedOn() == "rendezvous" {
						return true
					}
				}
				return false
			},
		},
		{
			ID: "MP8", Section: MessagePassing, Complex: true,
			Text:      "Can the system become quiet with some car never having crossed?",
			FlippedBy: []Code{"M6"},
			pred: func(w *pseudocode.World) bool {
				return w.Classify() == pseudocode.Quiescent && intGlobal(w, "crossed") != 3
			},
		},
	}
}

var (
	bankOnce sync.Once
	bankVal  *Bank
	bankErr  error
)

// BuildBank computes ground truths for every question by exploring each
// section's program once with all of that section's predicates. The result
// is cached process-wide. Exploration runs with partial-order reduction and
// parallel workers — configurations the equivalence tests pin to the
// pseudocode package's string-keyed reference search — so regenerating the
// bank takes well under a second where the reference explorer took seconds.
func BuildBank() (*Bank, error) {
	bankOnce.Do(func() { bankVal, bankErr = buildBank(fastExploreOpts()) })
	return bankVal, bankErr
}

// fastExploreOpts is the production search configuration for ground truths.
func fastExploreOpts() pseudocode.ExploreOpts {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	return pseudocode.ExploreOpts{POR: true, Workers: workers}
}

func buildBank(base pseudocode.ExploreOpts) (*Bank, error) {
	qs := questionDefs()
	for _, section := range []struct {
		sec Section
		src string
	}{{SharedMemory, sharedSrc}, {MessagePassing, messageSrc}} {
		var idx []int
		var preds []func(*pseudocode.World) bool
		for i := range qs {
			if qs[i].Section == section.sec {
				idx = append(idx, i)
				preds = append(preds, qs[i].pred)
			}
		}
		opts := base
		opts.Predicates = preds
		res, err := pseudocode.ExploreSource(section.src, opts)
		if err != nil {
			return nil, fmt.Errorf("study: exploring %s section: %w", section.sec, err)
		}
		if res.Truncated {
			return nil, fmt.Errorf("study: %s exploration truncated", section.sec)
		}
		for j, i := range idx {
			qs[i].Truth = res.PredicateHits[j]
		}
	}
	return &Bank{Questions: qs}, nil
}

package sumworkers

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestAllModelsMatchSequentialSum(t *testing.T) {
	for _, m := range core.AllModels {
		metrics, err := Spec().Run(m, core.Params{"workers": 6, "n": 50000}, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if metrics["workers"] != 6 {
			t.Fatalf("%s: workers = %d", m, metrics["workers"])
		}
	}
}

func TestSingleWorker(t *testing.T) {
	for _, m := range core.AllModels {
		if _, err := Spec().Run(m, core.Params{"workers": 1, "n": 10000}, 2); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestMoreWorkersThanElements(t *testing.T) {
	for _, m := range core.AllModels {
		if _, err := Spec().Run(m, core.Params{"workers": 16, "n": 5}, 3); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestChunkCoversExactly(t *testing.T) {
	f := func(rawN uint16, rawW uint8) bool {
		n := int(rawN%5000) + 1
		w := int(rawW%32) + 1
		covered := 0
		prevHi := 0
		for i := 0; i < w; i++ {
			lo, hi := chunk(n, w, i)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAllModelsAgree(t *testing.T) {
	// The three models must compute the same sum for the same seed.
	var sums []int64
	for _, m := range core.AllModels {
		metrics, err := Spec().Run(m, core.Params{"workers": 4, "n": 20000}, 99)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		sums = append(sums, metrics["sum"])
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Fatalf("models disagree: %v", sums)
	}
}

func TestMakeInputDeterministicAndInRange(t *testing.T) {
	const n = 50000
	a, wantA := makeInput(n, 7)
	b, wantB := makeInput(n, 7)
	if len(a) != n {
		t.Fatalf("len = %d, want %d", len(a), n)
	}
	var sum, lo, hi int64
	for i, v := range a {
		if v != b[i] {
			t.Fatalf("seed 7 drew %d then %d at index %d", v, b[i], i)
		}
		if v < -500 || v >= 500 {
			t.Fatalf("value %d at index %d outside [-500, 500)", v, i)
		}
		sum += v
		lo, hi = min(lo, v), max(hi, v)
	}
	// 50000 uniform draws miss an end of the range with odds about e^-50.
	if lo != -500 || hi != 499 {
		t.Fatalf("values span [%d, %d], want [-500, 499]", lo, hi)
	}
	if sum != wantA || wantA != wantB {
		t.Fatalf("sums %d and %d, want %d", wantA, wantB, sum)
	}
	c, _ := makeInput(n, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	// Independent draws from 1000 values agree about once in 1000.
	if same > n/100 {
		t.Fatalf("seeds 7 and 8 drew the same value at %d of %d indices", same, n)
	}
}

package main

import (
	"strings"
	"testing"

	"repro/internal/pseudocode"
)

func TestReport(t *testing.T) {
	deadlock := pseudocode.Terminal{Kind: pseudocode.Deadlocked, Blocked: []string{"a(acquire)"}}
	for _, tc := range []struct {
		name     string
		res      pseudocode.ExploreResult
		code     int
		want     string
		mustNot  string
		livelock bool
	}{
		{
			name:     "truncated run leaves liveness unchecked",
			res:      pseudocode.ExploreResult{StatesVisited: 50, Truncated: true},
			livelock: true,
			code:     0,
			want:     "liveness not checked: exploration truncated",
			mustNot:  "LIVELOCK",
		},
		{
			name: "deadlock and livelock both reported",
			res: pseudocode.ExploreResult{
				StatesVisited:   9,
				Deadlocks:       1,
				Terminals:       []pseudocode.Terminal{deadlock},
				DivergentStates: 4,
			},
			livelock: true,
			code:     3,
			want:     "LIVELOCK: 4 states cannot reach any terminal",
		},
		{
			name:     "livelock alone exits 4",
			res:      pseudocode.ExploreResult{StatesVisited: 9, DivergentStates: 9},
			livelock: true,
			code:     4,
			want:     "LIVELOCK: 9 states cannot reach any terminal",
		},
		{
			name:     "clean run",
			res:      pseudocode.ExploreResult{StatesVisited: 7, Outputs: []string{"hi\n"}, LivelockFree: true},
			livelock: true,
			code:     0,
			want:     "no deadlocks\nlivelock-free: every state can reach a terminal\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			code := report(&out, nil, pseudocode.Semantics{}, &tc.res, false, tc.livelock)
			if code != tc.code {
				t.Errorf("exit code %d, want %d\n%s", code, tc.code, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out.String())
			}
			if tc.mustNot != "" && strings.Contains(out.String(), tc.mustNot) {
				t.Errorf("output has %q:\n%s", tc.mustNot, out.String())
			}
		})
	}
}

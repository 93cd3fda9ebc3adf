package pseudocode

import (
	"os"
	"path/filepath"
	"testing"
)

func benchCompile(b *testing.B, src string) *Compiled {
	b.Helper()
	prog, err := CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func BenchmarkLexParse(b *testing.B) {
	src := loadFixtureB(b, "bridge_shared.pc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	src := loadFixtureB(b, "bridge_shared.pc")
	prog, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func loadFixtureB(b *testing.B, name string) string {
	b.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		b.Fatal(err)
	}
	return string(data)
}

func BenchmarkConcreteRunFig4(b *testing.B) {
	prog := benchCompile(b, `
x = 10
DEFINE changeX(diff)
    EXC_ACC
        WHILE x + diff < 0
            WAIT()
        ENDWHILE
        x = x + diff
        NOTIFY()
    END_EXC_ACC
ENDDEF
PARA
    changeX(-11)
    changeX(1)
ENDPARA
PRINTLN x
`)
	for i := 0; i < b.N; i++ {
		res, err := Run(prog, RunOpts{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Output != "0\n" {
			b.Fatalf("output = %q", res.Output)
		}
	}
}

func BenchmarkExploreBridgeShared(b *testing.B) {
	src := loadFixtureB(b, "bridge_shared.pc")
	prog, err := CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Explore(prog, ExploreOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if res.HasDeadlock() {
			b.Fatal("unexpected deadlock")
		}
	}
}

// BenchmarkAblationExploreMemo compares the memoized search (the state
// graph) with the reference search's tree walk (every path re-explored) on
// Figure 3's third program.
func BenchmarkAblationExploreMemo(b *testing.B) {
	prog := benchCompile(b, loadFixtureB(b, "fig3c_interleave.pc"))
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Explore(prog, ExploreOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := referenceExplore(prog, ExploreOpts{}, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWorldCloneEncode(b *testing.B) {
	src := loadFixtureB(b, "bridge_shared.pc")
	prog, err := CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	w := NewWorld(prog, Semantics{})
	// Advance a few steps to populate state.
	for i := 0; i < 10; i++ {
		cs := w.Runnable()
		if len(cs) == 0 {
			break
		}
		if err := w.Step(cs[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("clone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = w.Clone()
		}
	})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = w.Encode()
		}
	})
}

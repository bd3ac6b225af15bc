package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixturePkg is the package path each analyzer's fixtures pretend to
// live at, chosen so the analyzer's scope accepts them (simdeterminism
// only looks at the simulator packages; metrickey skips internal/metrics
// and internal/trace; protoexhaustive reads the transport and core
// paths).
var fixturePkg = map[string]string{
	"lockedsend":      "imapreduce/internal/transport",
	"spanpair":        "imapreduce/internal/core",
	"sendcheck":       "imapreduce/internal/core",
	"simdeterminism":  "imapreduce/internal/sim",
	"metrickey":       "imapreduce/internal/core",
	"protoexhaustive": "imapreduce/internal/transport",
	"lockorder":       "imapreduce/internal/core",
	"ctxflow":         "imapreduce/internal/core",
	"errwrapcheck":    "imapreduce/internal/core",
}

// wantRe extracts the expectation regex from a `// want "..."` (or
// backquoted) comment.
var wantRe = regexp.MustCompile("// want (\"[^\"]*\"|`[^`]*`)")

// fixtureKey addresses one fixture line across the whole directory.
type fixtureKey struct {
	file string
	line int
}

// TestFixtures loads each analyzer's testdata/<name> directory as one
// package — bad and good files see each other's declarations, so the
// typed facts resolve — and runs the analyzer once over it. Files named
// bad*.go must produce exactly the findings their `// want` comments
// describe; files named good*.go must produce none — the
// no-false-positive half of each analyzer's contract.
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			pkgPath := fixturePkg[a.Name]
			if pkgPath == "" {
				t.Fatalf("no fixture package path registered for analyzer %s", a.Name)
			}
			dir := filepath.Join("testdata", a.Name)
			pkg, err := LoadFixtureDir(pkgPath, dir)
			if err != nil {
				t.Fatalf("no fixtures for analyzer %s: %v", a.Name, err)
			}
			if len(pkg.Files) < 2 {
				t.Fatalf("analyzer %s must have at least a bad and a good fixture, found %d file(s)",
					a.Name, len(pkg.Files))
			}
			findings := Run([]*Package{pkg}, []*Analyzer{a})

			wants := map[fixtureKey][]string{}
			for _, f := range pkg.Files {
				src, err := os.ReadFile(f.Name)
				if err != nil {
					t.Fatal(err)
				}
				base := filepath.Base(f.Name)
				n := 0
				for i, line := range strings.Split(string(src), "\n") {
					for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
						pat, err := strconv.Unquote(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", f.Name, i+1, m[1], err)
						}
						wants[fixtureKey{base, i + 1}] = append(wants[fixtureKey{base, i + 1}], pat)
						n++
					}
				}
				if strings.HasPrefix(base, "good") && n > 0 {
					t.Fatalf("%s: good fixtures must not carry want comments", f.Name)
				}
			}

			got := map[fixtureKey][]string{}
			for _, fd := range findings {
				k := fixtureKey{filepath.Base(fd.Pos.Filename), fd.Pos.Line}
				got[k] = append(got[k], fd.Message)
			}

			for k, pats := range wants {
				msgs := got[k]
				if len(msgs) != len(pats) {
					t.Errorf("%s:%d: want %d finding(s) matching %q, got %d: %q",
						k.file, k.line, len(pats), pats, len(msgs), msgs)
					continue
				}
				claimed := make([]bool, len(msgs))
				for _, pat := range pats {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", k.file, k.line, pat, err)
					}
					matched := false
					for i, msg := range msgs {
						if !claimed[i] && re.MatchString(msg) {
							claimed[i], matched = true, true
							break
						}
					}
					if !matched {
						t.Errorf("%s:%d: no finding matches %q (got %q)", k.file, k.line, pat, msgs)
					}
				}
			}
			for k, msgs := range got {
				if _, expected := wants[k]; !expected {
					t.Errorf("%s:%d: unexpected finding(s): %q", k.file, k.line, msgs)
				}
			}
		})
	}
}

// TestByName pins the registry: every analyzer resolves by its own name
// and unknown names return nil.
func TestByName(t *testing.T) {
	for _, a := range All() {
		if got := ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v, want the registered analyzer", a.Name, got)
		}
	}
	if got := ByName("nope"); got != nil {
		t.Errorf("ByName(nope) = %v, want nil", got)
	}
}

// TestLoadersFailOnTypeErrors pins the contract of the two in-memory
// and fixture loaders: source that does not type-check is a load error
// naming the file, as it is for LoadPackages — no analyzer ever sees a
// partially typed package.
func TestLoadersFailOnTypeErrors(t *testing.T) {
	const src = `package p

func f() {
	undefinedThing()
	var x int = "not an int"
	_ = x
}
`
	if _, err := ParseSource("imapreduce/internal/core", "broken.go", src); err == nil {
		t.Error("ParseSource accepted source that does not type-check")
	} else if !strings.Contains(err.Error(), "broken.go") || !strings.Contains(err.Error(), "undefinedThing") {
		t.Errorf("ParseSource error should name the file and the failure, got: %v", err)
	}

	dir := t.TempDir()
	writeTestFile(t, filepath.Join(dir, "ok.go"), "package p\n\nfunc g() int { return 1 }\n")
	writeTestFile(t, filepath.Join(dir, "broken.go"), src)
	if _, err := LoadFixtureDir("imapreduce/internal/core", dir); err == nil {
		t.Error("LoadFixtureDir accepted a fixture that does not type-check")
	} else if !strings.Contains(err.Error(), "broken.go") || !strings.Contains(err.Error(), "undefinedThing") {
		t.Errorf("LoadFixtureDir error should name the file and the failure, got: %v", err)
	}
}

// TestLoadPackagesStrict pins the module loader's contract: type errors
// in a real (non-fixture) load are load failures, reported with
// positions, not silently tolerated.
func TestLoadPackagesStrict(t *testing.T) {
	dir := t.TempDir()
	writeTestFile(t, filepath.Join(dir, "go.mod"), "module brokenmod\n\ngo 1.22\n")
	writeTestFile(t, filepath.Join(dir, "main.go"), "package main\n\nfunc main() { undefinedThing() }\n")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	_, err = LoadPackages([]string{"."})
	if err == nil {
		t.Fatal("LoadPackages must fail on code that does not type-check")
	}
	if !strings.Contains(err.Error(), "type check failed") ||
		!strings.Contains(err.Error(), "undefinedThing") {
		t.Errorf("load error should name the type failure, got: %v", err)
	}
}

func writeTestFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

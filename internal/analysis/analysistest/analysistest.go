// Package analysistest runs an analyzer over GOPATH-style fixture
// packages and checks its diagnostics against // want comments, exactly
// like golang.org/x/tools/go/analysis/analysistest (reimplemented here
// because the repository builds without external modules).
//
// A fixture line expects diagnostics by writing, after the offending
// code:
//
//	x := bad() // want `regexp` `second regexp`
//
// Each backquoted or double-quoted regexp must match one diagnostic
// reported on that line, and every diagnostic must be expected.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// TestData returns the absolute path of the calling package's testdata
// directory.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// Run loads each fixture package from dir/src/<path>, applies the
// analyzer, and reports mismatches against the // want expectations as
// test errors.
func Run(t *testing.T, dir string, a *framework.Analyzer, paths ...string) {
	t.Helper()
	if len(paths) == 0 {
		t.Fatal("analysistest.Run: no fixture packages given")
	}
	loader, err := framework.NewLoader(framework.LoadConfig{
		ExtraRoots: []string{filepath.Join(dir, "src")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		diags, err := framework.RunAnalyzer(a, pkg)
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		checkExpectations(t, pkg, diags)
	}
}

// expectation is one // want regexp at a file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantRE extracts the quoted patterns of a want comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func checkExpectations(t *testing.T, pkg *framework.Package, diags []framework.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, raw, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	for _, d := range diags {
		var found bool
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// Package familyseam holds the seam between the workload families and the
// code that serves them: a family's evidence and decision rules live in
// internal/classify, so the streaming ingestor and the knowledge base must
// never name a family. A new family then needs no edit in either.
package familyseam

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// corePath is the import path that declares the families.
const corePath = "cloudlens/internal/core"

// familyNames are core's family constants.
var familyNames = map[string]bool{"FamilyCPU": true, "FamilyServerless": true}

// familyUses parses one Go source and returns the position of every
// reference to a core family constant, whatever name core is imported as.
func familyUses(fset *token.FileSet, name string, src []byte) ([]token.Position, error) {
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	local := ""
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != corePath {
			continue
		}
		local = path.Base(corePath)
		if imp.Name != nil {
			local = imp.Name.Name
		}
	}
	var out []token.Position
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && local != "" && x.Name == local && familyNames[n.Sel.Name] {
				out = append(out, fset.Position(n.Pos()))
			}
		case *ast.Ident:
			// A dot import names the constant bare.
			if local == "." && familyNames[n.Name] {
				out = append(out, fset.Position(n.Pos()))
			}
		}
		return true
	})
	return out, nil
}

// TestStreamAndKBNameNoFamily fails on any non-test file of internal/stream
// or internal/kb that names core.FamilyCPU or core.FamilyServerless.
func TestStreamAndKBNameNoFamily(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../../stream", "../../kb"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files under %s", dir)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			uses, err := familyUses(fset, file, src)
			if err != nil {
				t.Fatal(err)
			}
			for _, pos := range uses {
				t.Errorf("%s names a workload family; its rules belong in internal/classify", pos)
			}
		}
	}
}

// TestFamilyUsesSeesEveryImportForm checks the finder on the import
// spellings a file could use.
func TestFamilyUsesSeesEveryImportForm(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want int
	}{
		{`package x
import "cloudlens/internal/core"
var a, b = core.FamilyCPU, core.FamilyServerless
var c = core.PatternStable`, 2},
		{`package x
import c "cloudlens/internal/core"
func f(x c.Family) bool { return x == c.FamilyServerless }`, 1},
		{`package x
import . "cloudlens/internal/core"
var a = FamilyCPU`, 1},
		{`package x
import "other/core"
var a = core.FamilyCPU`, 0},
		{`package x
import "cloudlens/internal/core"
func f(x core.Family) []core.Pattern { return x.Patterns() }`, 0},
	} {
		uses, err := familyUses(token.NewFileSet(), "x.go", []byte(tc.src))
		if err != nil {
			t.Fatal(err)
		}
		if len(uses) != tc.want {
			t.Errorf("found %d family names, want %d, in:\n%s", len(uses), tc.want, tc.src)
		}
	}
}

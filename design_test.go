package repro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designProse is the prose that maps the system, and designMaxLines its
// ceiling.
var designProse = []string{"DESIGN.md", "doc.go", "internal/runtime/README.md"}

const designMaxLines = 1318

// publicMaxNames is the ceiling on the exported names package pash
// declares: a name added past it has to say what it offers that the
// internal package behind it does not.
const publicMaxNames = 61

var (
	citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*`)
	citedRow  = regexp.MustCompile("`ledger:([a-z0-9-]+)/([A-Za-z0-9_.-]+)`")
	declared  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

// TestDesignCitations keeps DESIGN.md checkable: every test, benchmark
// and fuzz target it names as a witness is declared in some _test.go file,
// every ledger row it cites is in ledger/counts.json or the latest traced
// ledger, and the three prose files stay within their line budget.
func TestDesignCitations(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}

	tests := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declared.FindAllSubmatch(src, -1) {
			tests[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, name := range citedTest.FindAll(design, -1) {
		cited++
		if !tests[string(name)] {
			t.Errorf("DESIGN.md cites %s, which no _test.go declares", name)
		}
	}
	if cited == 0 {
		t.Error("DESIGN.md cites no test")
	}

	rows := ledgerRows(t)
	for _, m := range citedRow.FindAllSubmatch(design, -1) {
		if key := string(m[1]) + "/" + string(m[2]); !rows[key] {
			t.Errorf("DESIGN.md cites ledger row %s, which neither ledger file holds", key)
		}
	}

	lines := 0
	for _, name := range designProse {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines += bytes.Count(src, []byte("\n"))
	}
	if lines > designMaxLines {
		t.Errorf("%s hold %d lines, more than %d", strings.Join(designProse, " + "), lines, designMaxLines)
	}
}

// ledgerRows returns every workload/row pair the count gate or the latest
// traced ledger records.
func ledgerRows(t *testing.T) map[string]bool {
	t.Helper()
	rows := map[string]bool{}
	raw, err := os.ReadFile(ledgerCountsFile)
	if err != nil {
		t.Fatal(err)
	}
	var counts map[string]map[string]float64
	if err := json.Unmarshal(raw, &counts); err != nil {
		t.Fatal(err)
	}
	for workload, row := range counts {
		for name := range row {
			rows[workload+"/"+name] = true
		}
	}
	raw, err = os.ReadFile("ledger/PR45-change-trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Rows []struct{ Workload, Name string }
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	for _, r := range trace.Rows {
		rows[r.Workload+"/"+r.Name] = true
	}
	return rows
}

// TestPublicSurface counts the exported identifiers the non-test files of
// package pash declare — top-level names and the methods of exported
// types — and fails above publicMaxNames.
func TestPublicSurface(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), "pash", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil && !ast.IsExported(receiverType(d.Recv.List[0].Type)) {
						continue
					}
					if d.Name.IsExported() {
						names = append(names, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() {
								names = append(names, sp.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								if n.IsExported() {
									names = append(names, n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("package pash declares no exported name")
	}
	if len(names) > publicMaxNames {
		t.Errorf("package pash exports %d names, more than %d: %v", len(names), publicMaxNames, names)
	}
}

// receiverType names a method receiver's base type.
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

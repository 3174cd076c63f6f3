package repro

import (
	"bytes"
	"encoding/json"
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
	raw, err = os.ReadFile("ledger/PR42-change-trace.json")
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

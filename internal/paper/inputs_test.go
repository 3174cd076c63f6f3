package paper

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTextDeterministic(t *testing.T) {
	a := Text(100, 7)
	b := Text(100, 7)
	if a != b {
		t.Error("Text must be deterministic for a fixed seed")
	}
	if Text(100, 8) == a {
		t.Error("different seeds should produce different text")
	}
	lines := strings.Count(a, "\n")
	if lines != 100 {
		t.Errorf("line count = %d, want 100", lines)
	}
}

func TestDictionary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dict")
	if err := Dictionary(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("dictionary not sorted/deduped at %q >= %q", lines[i-1], lines[i])
		}
	}
	// The rare tail words must be absent (Spell needs misspellings).
	if strings.Contains(string(data), "zephyr") {
		t.Error("dictionary should omit rare tail words")
	}
}

func TestNOAALayout(t *testing.T) {
	root := t.TempDir()
	if err := NOAAArchive(root, 2, 10, 1); err != nil {
		t.Fatal(err)
	}
	idx, err := os.ReadFile(filepath.Join(root, "host", "noaa", "2015.index"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(idx), ".gz") {
		t.Error("index must list .gz files")
	}
	// Check one archive decompresses to fixed-width records with a
	// 4-digit temperature at columns 89-92.
	entries, err := os.ReadDir(filepath.Join(root, "host", "noaa", "2015"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("year dir: %v (%d entries)", err, len(entries))
	}
	f, err := os.Open(filepath.Join(root, "host", "noaa", "2015", entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 200)
	n, _ := zr.Read(buf)
	line := string(buf[:n])
	if len(line) < 92 {
		t.Fatalf("record too short: %d", len(line))
	}
	temp := line[88:92]
	for _, c := range temp {
		if c < '0' || c > '9' {
			t.Fatalf("temperature field %q not numeric", temp)
		}
	}
}

func TestWebLayout(t *testing.T) {
	root := t.TempDir()
	if err := WebCorpus(root, 5, 2, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "urls.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 {
		t.Fatalf("url count = %d", len(lines))
	}
	page, err := os.ReadFile(filepath.Join(root, "host", "wiki", "p0.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "<html>") || !strings.Contains(string(page), "href=") {
		t.Error("page missing HTML structure/links")
	}
}

func TestScriptsDir(t *testing.T) {
	dir := t.TempDir()
	if err := scriptsDir(filepath.Join(dir, "bin"), 20, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "bin", "PATHLIST"))
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(names) != 20 {
		t.Fatalf("listing has %d names", len(names))
	}
	sawScript := false
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, "bin", n))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(string(b), "#!") {
			sawScript = true
		}
	}
	if !sawScript {
		t.Error("no scripts generated")
	}
}

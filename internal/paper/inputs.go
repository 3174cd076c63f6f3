package paper

import (
	"compress/gzip"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// This file generates the deterministic synthetic datasets that stand in
// for the paper's inputs: book-like text (the one-liners), NOAA-format
// weather archives (§2.1/§6.3), a Wikipedia fragment (§6.4), a dictionary
// (Spell) and a directory of scripts (Shortest-scripts). Everything is
// seeded, so runs are reproducible byte for byte.

// seed drives every generated benchmark input.
const seed = 20210426 // EuroSys'21 presentation day

// wordList is a base vocabulary; Zipf sampling over it approximates
// natural-text frequency skew.
var wordList = []string{
	"the", "of", "and", "a", "to", "in", "is", "you", "that", "it",
	"he", "was", "for", "on", "are", "as", "with", "his", "they", "I",
	"at", "be", "this", "have", "from", "or", "one", "had", "by", "word",
	"but", "not", "what", "all", "were", "we", "when", "your", "can",
	"said", "there", "use", "an", "each", "which", "she", "do", "how",
	"their", "if", "will", "up", "other", "about", "out", "many", "then",
	"them", "these", "so", "some", "her", "would", "make", "like", "him",
	"into", "time", "has", "look", "two", "more", "write", "go", "see",
	"number", "no", "way", "could", "people", "my", "than", "first",
	"water", "been", "call", "who", "oil", "its", "now", "find", "long",
	"down", "day", "did", "get", "come", "made", "may", "part", "zephyr",
	"quixotic", "jumbled", "vortex", "glyph", "sphinx", "waltz", "nymph",
}

// Text returns n lines of Zipf-distributed words.
func Text(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(len(wordList)-1))
	var sb strings.Builder
	sb.Grow(n * 40)
	for i := 0; i < n; i++ {
		words := 4 + rng.Intn(9)
		for w := 0; w < words; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(wordList[zipf.Uint64()])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func textFile(path string, n int, seed int64) error {
	return os.WriteFile(path, []byte(Text(n, seed)), 0o644)
}

// Dictionary writes a sorted, deduplicated, lower-case dictionary of the
// vocabulary minus its rare tail, so Spell finds "misspellings".
func Dictionary(path string) error {
	var dict []string
	for _, w := range wordList[:len(wordList)-8] {
		dict = append(dict, strings.ToLower(w))
	}
	slices.Sort(dict)
	return os.WriteFile(path, []byte(strings.Join(slices.Compact(dict), "\n")+"\n"), 0o644)
}

// NOAAArchive builds a curl-root tree mimicking the NOAA archive layout
// Fig. 1 reads for the years 2015-2019: per-year index listings plus
// gzipped fixed-width records with the temperature in columns 89-92 (and
// occasional 999 bogus readings). ftp://host/noaa/YYYY.index and
// ftp://host/noaa/YYYY/F resolve under root/host/noaa/.
func NOAAArchive(root string, stations, records int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for year := 2015; year <= 2019; year++ {
		ydir := filepath.Join(root, "host", "noaa", fmt.Sprint(year))
		if err := os.MkdirAll(ydir, 0o755); err != nil {
			return err
		}
		var index strings.Builder
		for st := 0; st < stations; st++ {
			name := fmt.Sprintf("%06d-%d.gz", 700000+st, year)
			var raw strings.Builder
			for rec := 0; rec < records; rec++ {
				// 88 filler chars, then a 4-digit temperature field.
				temp := rng.Intn(600)
				if rng.Intn(50) == 0 {
					temp = 999 // bogus reading the script filters out
				}
				fmt.Fprintf(&raw, "%088d%04d%020d\n", rec, temp, rng.Int63n(1e18))
			}
			f, err := os.Create(filepath.Join(ydir, name))
			if err != nil {
				return err
			}
			zw := gzip.NewWriter(f)
			_, err = zw.Write([]byte(raw.String()))
			if cerr := zw.Close(); err == nil {
				err = cerr
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(&index, "-rw-r--r-- 1 ftp ftp %8d Jan  1 00:00 %s\n", raw.Len(), name)
		}
		if err := os.WriteFile(ydir+".index", []byte(index.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// WebCorpus builds a curl-root web corpus: root/host/wiki/pN.html pages
// of paras paragraphs with text and links, plus root/urls.txt listing
// their URLs one per line.
func WebCorpus(root string, pages, paras int, seed int64) error {
	dir := filepath.Join(root, "host", "wiki")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(len(wordList)-1))
	var urls strings.Builder
	for p := 0; p < pages; p++ {
		var page strings.Builder
		fmt.Fprintf(&page, "<html><head><title>Page %d</title></head><body>\n", p)
		for para := 0; para < paras; para++ {
			page.WriteString("<p>")
			words := 20 + rng.Intn(60)
			for w := 0; w < words; w++ {
				if w > 0 {
					page.WriteByte(' ')
				}
				page.WriteString(wordList[zipf.Uint64()])
			}
			fmt.Fprintf(&page, ` <a href="http://host/wiki/p%d.html">link</a></p>`+"\n", rng.Intn(pages))
		}
		page.WriteString("</body></html>\n")
		name := fmt.Sprintf("p%d.html", p)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(page.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&urls, "http://host/wiki/%s\n", name)
	}
	return os.WriteFile(filepath.Join(root, "urls.txt"), []byte(urls.String()), 0o644)
}

// scriptsDir populates dir with n small files — shell, python and perl
// scripts and binary-ish files — and lists their names one per line in
// dir/PATHLIST, standing in for the Shortest-scripts pipeline's find.
func scriptsDir(dir string, n int, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	var names strings.Builder
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("tool%03d", i)
		var content string
		switch rng.Intn(4) {
		case 0:
			content = "#!/bin/sh\n" + strings.Repeat("echo line\n", 1+rng.Intn(40))
		case 1:
			content = "#!/usr/bin/python\n" + strings.Repeat("print('x')\n", 1+rng.Intn(40))
		case 2:
			content = "#!/usr/bin/perl\n" + strings.Repeat("print 1;\n", 1+rng.Intn(40))
		default:
			content = "\x7fELF" + strings.Repeat("\x00\x01binary", 30)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o755); err != nil {
			return err
		}
		names.WriteString(name + "\n")
	}
	return os.WriteFile(filepath.Join(dir, "PATHLIST"), []byte(names.String()), 0o644)
}

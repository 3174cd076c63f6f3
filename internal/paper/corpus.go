package paper

import (
	"fmt"
	"os"
	"path/filepath"
)

// This file is the paper's benchmark corpus in executable form: the
// twelve classic one-liners of Tab. 2 / Fig. 7, the Unix50 pipelines of
// Fig. 8, the two large use cases (§6.3 NOAA, §6.4 Wikipedia), and the
// shell forms the conformance suite adds. Each benchmark generates its
// own input at a given scale and returns the script to run.

// Bench is one benchmark script plus its workload.
type Bench struct {
	// Name as used in Tab. 2 / Fig. 7 / Fig. 8.
	Name string
	// Structure summarizes command classes, e.g. "3xS" or "S,P" (Tab. 2).
	Structure string
	// Highlights reproduces Tab. 2's notes.
	Highlights string
	// Setup generates input data under dir at the given scale (a line
	// count multiplier) and returns the script source.
	Setup func(dir string, scale int) (string, error)
	// Vars returns extra environment (PASH_CURL_ROOT etc.).
	Vars func(dir string) map[string]string
}

func writeText(dir, name string, lines int) error {
	return textFile(filepath.Join(dir, name), lines, seed)
}

// OneLiners returns the Tab. 2 collection. scale=1 means roughly 20k
// input lines (laptop-sized); the paper used 1-100 GB.
func OneLiners() []Bench {
	return []Bench{
		{
			Name:       "grep",
			Structure:  "3xS",
			Highlights: "complex NFA regex",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 20000*scale); err != nil {
					return "", err
				}
				return `cat in.txt | tr A-Z a-z | grep -E '(the|of|and).*(water|people|number).*(word|time|day|waltz)'`, nil
			},
		},
		{
			Name:       "sort",
			Structure:  "S,P",
			Highlights: "sorting",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 20000*scale); err != nil {
					return "", err
				}
				return `cat in.txt | tr A-Z a-z | sort`, nil
			},
		},
		{
			Name:       "top-n",
			Structure:  "2xS,4xP",
			Highlights: "double sort, uniq reduction",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 20000*scale); err != nil {
					return "", err
				}
				return `cat in.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 100`, nil
			},
		},
		{
			Name:       "wf",
			Structure:  "3xS,3xP",
			Highlights: "double sort, uniq reduction",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 20000*scale); err != nil {
					return "", err
				}
				return `cat in.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | grep -v '^$' | sort | uniq -c | sort -rn`, nil
			},
		},
		{
			Name:       "grep-light",
			Structure:  "3xS",
			Highlights: "IO-intensive, computation-light",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 40000*scale); err != nil {
					return "", err
				}
				return `cat in.txt | grep water | cut -d ' ' -f1`, nil
			},
		},
		{
			Name:       "spell",
			Structure:  "4xS,3xP",
			Highlights: "comparisons (comm)",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 20000*scale); err != nil {
					return "", err
				}
				if err := Dictionary(filepath.Join(dir, "dict.txt")); err != nil {
					return "", err
				}
				return `cat in.txt | iconv -f utf-8 -t ascii | tr -cs A-Za-z '\n' | tr A-Z a-z | tr -d '0-9' | sort | uniq | comm -23 - dict.txt`, nil
			},
		},
		{
			Name:       "shortest-scripts",
			Structure:  "5xS,2xP",
			Highlights: "long S pipeline ending with P",
			Setup: func(dir string, scale int) (string, error) {
				n := 200 * scale
				if n > 1000 {
					n = 1000
				}
				if err := scriptsDir(filepath.Join(dir, "bin"), n, seed); err != nil {
					return "", err
				}
				return `cat bin/PATHLIST | sed 's;^;bin/;' | file | grep -E 'script' | cut -d: -f1 | xargs -L 1 wc -l | sort -n | head -n 15`, nil
			},
		},
		{
			Name:       "diff",
			Structure:  "2xS,3xP",
			Highlights: "non-parallelizable diffing",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in1.txt", 8000*scale); err != nil {
					return "", err
				}
				if err := textFile(filepath.Join(dir, "in2.txt"), 8000*scale, seed+1); err != nil {
					return "", err
				}
				return `tr A-Z a-z < in1.txt | sort > s1.tmp
tr A-Z a-z < in2.txt | sort > s2.tmp
diff s1.tmp s2.tmp | grep -c '^>'`, nil
			},
		},
		{
			Name:       "bi-grams",
			Structure:  "3xS,3xP",
			Highlights: "stream shifting and merging",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 12000*scale); err != nil {
					return "", err
				}
				return `cat in.txt | tr -cs A-Za-z '\n' | tr A-Z a-z > words.tmp
tail -n +2 words.tmp > next.tmp
paste -d ' ' words.tmp next.tmp | sort | uniq`, nil
			},
		},
		{
			Name:       "bi-grams-opt",
			Structure:  "3xS,P",
			Highlights: "optimized version of bigrams",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 12000*scale); err != nil {
					return "", err
				}
				return `cat in.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | bigrams-aux | sort -u`, nil
			},
		},
		{
			Name:       "set-diff",
			Structure:  "5xS,2xP",
			Highlights: "two pipelines merging to a comm",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in1.txt", 10000*scale); err != nil {
					return "", err
				}
				if err := textFile(filepath.Join(dir, "in2.txt"), 10000*scale, seed+2); err != nil {
					return "", err
				}
				// Both branches deduplicate (sort -u) before comm: like
				// Spell, comm's stateless annotation assumes set inputs.
				return `cut -d ' ' -f1 in1.txt | tr A-Z a-z | sort -u > sa.tmp
cut -d ' ' -f1 in2.txt | tr A-Z a-z | grep -v '^w' | sort -u > sb.tmp
comm -23 sa.tmp sb.tmp`, nil
			},
		},
		{
			Name:       "sort-sort",
			Structure:  "S,2xP",
			Highlights: "parallelizable P after P",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 15000*scale); err != nil {
					return "", err
				}
				return `cat in.txt | tr ' ' '\n' | sort | sort -r`, nil
			},
		},
	}
}

// ShellForms returns scripts exercising shell constructs beyond plain
// pipelines — heredocs (quoted and unquoted delimiters, with their
// different expansion semantics) and subshells — so the differential
// conformance suite pins these forms against a real POSIX shell at
// every width, not just the straight-line benchmark corpus.
func ShellForms() []Bench {
	return []Bench{
		{
			Name:       "heredoc",
			Structure:  "heredoc stdin, 3xS,P",
			Highlights: "unquoted delimiter: $var and backslash expansion in the body",
			Setup: func(dir string, scale int) (string, error) {
				return `pat=water
tr A-Z a-z <<EOF | tr -cs a-z '\n' | grep -v '^$' | sort
The Quick Brown Fox searches for $pat
a literal \$pat stays a dollar sign
backslash-newline joins this \
line with the next
EOF`, nil
			},
		},
		{
			Name:       "heredoc-quoted",
			Structure:  "heredoc stdin, 2xS,P",
			Highlights: "quoted delimiter: the body is raw, no expansion at all",
			Setup: func(dir string, scale int) (string, error) {
				return `pat=water
cat <<'EOF' | sort | uniq -c
raw $pat is not expanded
raw $pat is not expanded
neither is \$this nor a backquote
EOF`, nil
			},
		},
		{
			Name:       "heredoc-file-merge",
			Structure:  "heredoc + file, 3xS,2xP",
			Highlights: "heredoc output merged with a real workload file",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 4000*scale); err != nil {
					return "", err
				}
				return `grep water in.txt | tr A-Z a-z | sort > hits.tmp
sort <<EOF > extra.tmp
zebra water line
alpha water line
EOF
sort -m hits.tmp extra.tmp | uniq`, nil
			},
		},
		{
			Name:       "subshell",
			Structure:  "(S;S),2xP",
			Highlights: "subshell output feeding a parallelizable pipeline",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 6000*scale); err != nil {
					return "", err
				}
				return `(cat in.txt | tr A-Z a-z; echo the end marker) | tr -cs a-z '\n' | sort | uniq -c | sort -rn | head -n 20`, nil
			},
		},
		{
			Name:       "subshell-heredoc",
			Structure:  "(S<<;S),P",
			Highlights: "heredoc inside a subshell, merged streams",
			Setup: func(dir string, scale int) (string, error) {
				if err := writeText(dir, "in.txt", 3000*scale); err != nil {
					return "", err
				}
				return `x=marker
(tr a-z A-Z <<EOF
first $x line
second $x line
EOF
grep water in.txt) | sort`, nil
			},
		},
		{
			Name:       "assign-stage",
			Structure:  "S|{S|S;S}",
			Highlights: "an assignment-only pipeline stage sets nothing and writes nothing: the next stage reads EOF",
			Setup: func(dir string, scale int) (string, error) {
				return `echo STDIN | { x=1 | cat; echo "[$x]"; }`, nil
			},
		},
		{
			Name:       "quoted-glob",
			Structure:  "S;S",
			Highlights: "a quoted *, ? or [ is a literal character: only the unquoted a* and a? glob, relative or under $PWD",
			Setup: func(dir string, scale int) (string, error) {
				for name, text := range map[string]string{"a1": "abc\nxyz\n", "a2": "aa\n"} {
					if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
						return "", err
					}
				}
				return `echo 'a*' "a*" a*
echo "$PWD"/a? | sed "s;$PWD/;;g"
grep 'a*' a1`, nil
			},
		},
	}
}

// NOAA returns the §6.3 weather use case (Fig. 1's script against the
// offline archive).
func NOAA() Bench {
	return Bench{
		Name:       "noaa",
		Structure:  "Fig. 1 (12 stages)",
		Highlights: "temperature analysis, pre-processing + max",
		Setup: func(dir string, scale int) (string, error) {
			if err := NOAAArchive(dir, 4*scale, 2000*scale, seed); err != nil {
				return "", err
			}
			return `base="ftp://host/noaa";
for y in {2015..2019}; do
 curl -s $base/$y.index | grep gz | tr -s ' ' | cut -d ' ' -f9 |
 sed "s;^;$base/$y/;" | xargs -n 1 curl -s | gunzip |
 cut -c 89-92 | grep -v 999 | sort -rn | head -n 1 |
 sed "s/^/Maximum temperature for $y is: /"
done`, nil
		},
		Vars: func(dir string) map[string]string {
			return map[string]string{"PASH_CURL_ROOT": dir}
		},
	}
}

// WebIndex returns the §6.4 Wikipedia indexing use case: fetch pages,
// strip HTML, stem, and index (term frequencies and trigrams).
func WebIndex() Bench {
	return Bench{
		Name:       "web-index",
		Structure:  "S-heavy multi-language pipeline",
		Highlights: "HTML-to-text dominates; custom annotated commands",
		Setup: func(dir string, scale int) (string, error) {
			if err := WebCorpus(dir, 40*scale, 30, seed); err != nil {
				return "", err
			}
			return `cat urls.txt | xargs -n 1 curl -s | html-to-text | word-stem |
tr -cs a-z '\n' | grep -v '^$' | sort | uniq -c | sort -rn > termfreq.tmp
cat urls.txt | xargs -n 1 curl -s | html-to-text | trigrams | sort | uniq -c | sort -rn | head -n 100`, nil
		},
		Vars: func(dir string) map[string]string {
			return map[string]string{"PASH_CURL_ROOT": dir}
		},
	}
}

// Unix50 returns the 34 found-in-the-wild pipelines of §6.2, modeled on
// the unofficial Unix50-game solutions: 2-12 stage pipelines written by
// non-experts, mixing parallelizable stages with awk/sed usage that PaSh
// must conservatively leave alone, and a few head-only pipelines whose
// runtime is dominated by setup (the paper's slowdown cases 2, 19, 31).
// The original solutions operate on the Unix-history text corpus; the
// synthetic corpus preserves the line/word statistics that matter.
func Unix50() []Bench {
	pipelines := []struct {
		script    string
		structure string
	}{
		// 0-5: sort-centric pipelines (capped speedup per the paper).
		{`cat in.txt | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 20`, "2xS,4xP"},
		{`cat in.txt | cut -d ' ' -f1 | sort | uniq | wc -l`, "2xS,3xP"},
		{`cat in.txt | head -n 2 | tr A-Z a-z`, "head-bound"},
		{`cat in.txt | tr -cs A-Za-z '\n' | sort -u`, "2xS,P"},
		{`cat in.txt | grep the | wc -l`, "S,P"},
		{`cat in.txt | cut -d ' ' -f2 | grep -c a`, "2xS,P"},
		// 6-12: deeper pipelines with existing task parallelism.
		{`cat in.txt | tr A-Z a-z | tr -cs a-z '\n' | grep -v '^$' | sort | uniq -c | sort -rn | head -n 10`, "3xS,4xP"},
		{`cat in.txt | grep of | tr A-Z a-z | cut -d ' ' -f1-3 | sort | uniq | head -n 50`, "3xS,3xP"},
		{`cat in.txt | sed 's/ /\n/g' | grep -v '^$' | sort | uniq -c | sort -n | tail -n 5`, "2xS,4xP"},
		{`cat in.txt | cut -d ' ' -f3 | sed 's/[^a-zA-Z]//g' | grep -v '^$' | sort -u`, "3xS,P"},
		{`cat in.txt | rev | cut -c 1-5 | rev | sort | uniq -c | sort -rn | head -n 10`, "3xS,4xP"},
		{`cat in.txt | fold -w 30 | grep a | wc -l`, "2xS,P"},
		{`cat in.txt | tr ' ' '\n' | grep -c '^the$'`, "S,P"},
		// 13: awk column reordering — PaSh cannot parallelize awk (the
		// paper's example: replacing it with sort -k unlocks 8.1x).
		{`cat in.txt | awk '{print $2, $0}' | sort -r | head -n 10`, "awk-bound"},
		// 14-18: mixed.
		{`cat in.txt | grep -E '(water|number)' | tr A-Z a-z | sort | uniq`, "2xS,2xP"},
		{`cat in.txt | cut -d ' ' -f1,2 | tr ' ' '-' | sort | uniq -c | sort -rn | head -n 10`, "3xS,4xP"},
		{`cat in.txt | tr -d '0-9' | tr -s ' ' | sort | head -n 30`, "3xS,2xP"},
		{`cat in.txt | grep people | cut -d ' ' -f1 | sort | uniq -c`, "2xS,2xP"},
		{`cat in.txt | tr A-Z a-z | grep -o 'th.' | sort | uniq -c | sort -rn`, "2xS,3xP"},
		// 19: head-only (slowdown case: setup dominates).
		{`cat in.txt | head -n 1`, "head-bound"},
		// 20-23: wordy pipelines.
		{`cat in.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -u | wc -l`, "3xS,3xP"},
		{`cat in.txt | cut -c 1-40 | sort | uniq | wc -l`, "2xS,3xP"},
		{`cat in.txt | grep -v the | wc`, "S,P"},
		{`cat in.txt | sed 's/the/THE/g' | grep -c THE`, "2xS,P"},
		// 24-26: awk/sed-bound (no speedup group).
		{`cat in.txt | awk '{s += NF} END {print s}'`, "awk-bound"},
		{`cat in.txt | awk 'NR % 2 == 0'`, "awk-bound"},
		{`cat in.txt | sed -n '2p'`, "positional-sed"},
		// 27-28: sort-heavy deep pipelines.
		{`cat in.txt | tr ' ' '\n' | sort | uniq -c | sort -rn | head -n 40 | tac`, "2xS,5xP"},
		{`cat in.txt | cut -d ' ' -f1 | sort | uniq -c | sort -n | tail -n 3`, "2xS,4xP"},
		// 29-30: no parallelizable stages / stateful stream edits.
		{`cat in.txt | awk '{print NR, $1}' | head -n 5`, "awk-bound"},
		{`cat in.txt | nl | grep '5' | head -n 5`, "nl-bound"},
		// 31: another setup-dominated one.
		{`cat in.txt | head -n 3 | rev`, "head-bound"},
		// 32-33: closing sort-centric pair.
		{`cat in.txt | tr A-Z a-z | tr -cs a-z '\n' | bigrams-aux | sort | uniq -c | sort -rn | head -n 10`, "2xS,5xP"},
		{`cat in.txt | grep -E '[aeiou]{2}' | sort -u | wc -l`, "S,3xP"},
	}
	out := make([]Bench, len(pipelines))
	for i, p := range pipelines {
		i, p := i, p
		out[i] = Bench{
			Name:      fmt.Sprintf("unix50-%02d", i),
			Structure: p.structure,
			Setup: func(dir string, scale int) (string, error) {
				if err := textFile(filepath.Join(dir, "in.txt"), 10000*scale, seed+int64(i)); err != nil {
					return "", err
				}
				return p.script, nil
			},
		}
	}
	return out
}

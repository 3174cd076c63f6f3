package annot

import (
	"fmt"
	"sync"
)

// stdlibSrc is PaSh's "data-parallel standard library": annotation records
// for the POSIX/GNU commands that the benchmarks exercise. Records are in
// the Appendix A DSL. Clause order encodes least-parallelizable-flag-wins.
const stdlibSrc = `
# --- stateless workhorses -------------------------------------------------
cat {
| -n => (P, [args[0:]], [stdout])
| -b => (P, [args[0:]], [stdout])
| _  => (S, [args[0:]], [stdout])
}

tr {
takesvalue ;
| _ => (S, [stdin], [stdout])
}

grep {
takesvalue -e -m ;
| -e /\ -m => (N, [args[0:]], [stdout])
| -m => (N, [args[1:]], [stdout])
| -l \/ -L => (N, [args[1:]], [stdout])
| -e /\ -c => (P, [args[0:]], [stdout])
| -c => (P, [args[1:]], [stdout])
| -e /\ -n => (P, [args[0:]], [stdout])
| -n => (P, [args[1:]], [stdout])
| -q => (N, [args[1:]], [stdout])
| -e => (S, [args[0:]], [stdout])
| _ => (S, [args[1:]], [stdout])
}

cut {
takesvalue -d -f -c -b ;
| _ => (S, [args[0:]], [stdout])
}

sed {
takesvalue -e ;
| -e => (S, [args[0:]], [stdout])
| _ => (S, [args[1:]], [stdout])
}

rev {
| _ => (S, [args[0:]], [stdout])
}

fold {
takesvalue -w ;
| _ => (S, [args[0:]], [stdout])
}

iconv {
takesvalue -f -t ;
| _ => (S, [args[0:]], [stdout])
}

echo {
| _ => (S, [], [stdout])
}

seq {
| _ => (S, [], [stdout])
}

# xargs applies its command to bounded batches of input lines; with a
# stateless command (the only way PaSh uses it) and one item per batch
# the whole node is stateless. This mirrors the paper's treatment in
# Fig. 3 (xargs -n 1 curl -s); refineXargs demotes larger batches.
xargs {
takesvalue -n -I -s -L ;
| _ => (S, [stdin], [stdout])
}

# file(1) maps each named input independently; in pipelines it is driven
# line-by-line via xargs, so it behaves as a stateless map.
file {
| _ => (S, [stdin], [stdout])
}

# --- parallelizable pure --------------------------------------------------
sort {
takesvalue -k -t -o ;
| -o => (E, [args[0:]], [stdout])
| -c => (N, [args[0:]], [stdout])
| _ => (P, [args[0:]], [stdout])
}

uniq {
takesvalue -f -s -w ;
| _ => (P, [args[0]], [stdout])
}

wc {
| _ => (P, [args[0:]], [stdout])
}

head {
takesvalue -n -c ;
| _ => (P, [args[0:]], [stdout])
}

tail {
takesvalue -n -c ;
| _ => (P, [args[0:]], [stdout])
}

nl {
takesvalue -b -s -w ;
| _ => (P, [args[0:]], [stdout])
}

tac {
| _ => (P, [args[0:]], [stdout])
}

# comm's single-column forms are stateless over their surviving stream
# (the paper's example record, §3.2). Note the same caveat as upstream
# PaSh: statelessness holds under comm's usual set discipline (sorted,
# deduplicated inputs — what sort -u | comm pipelines produce); with
# duplicated lines comm is multiset-sensitive at chunk boundaries.
comm {
| -1 /\ -3 => (S, [args[1]], [stdout])
| -2 /\ -3 => (S, [args[0]], [stdout])
| _ => (P, [args[0], args[1]], [stdout])
}

paste {
takesvalue -d ;
| -s => (P, [args[0:]], [stdout])
| _ => (S, [args[0:]], [stdout])
}

# --- non-parallelizable pure ----------------------------------------------
cksum {
| _ => (N, [args[0:]], [stdout])
}

diff {
| _ => (N, [args[0], args[1]], [stdout])
}

awk {
| _ => (N, [args[1:]], [stdout])
}

gunzip {
| _ => (N, [args[0:]], [stdout])
}

tsort {
| _ => (N, [args[0:]], [stdout])
}

bc {
| _ => (N, [args[0:]], [stdout])
}

# --- custom commands outside POSIX/GNU (the §6.4 extensibility story) ----
html-to-text {
| _ => (S, [stdin], [stdout])
}

word-stem {
| _ => (S, [stdin], [stdout])
}

trigrams {
| _ => (S, [stdin], [stdout])
}

bigrams-aux {
| _ => (P, [stdin], [stdout])
}

# --- side-effectful -------------------------------------------------------
curl {
takesvalue -o ;
| _ => (E, [], [stdout])
}

mkfifo {
| _ => (E, [], [stdout])
}

rm {
| _ => (E, [], [stdout])
}

mv {
| _ => (E, [], [stdout])
}

cp {
| _ => (E, [], [stdout])
}

ls {
| _ => (E, [], [stdout])
}

find {
takesvalue -name -type -L ;
| _ => (E, [], [stdout])
}

date {
| _ => (E, [], [stdout])
}

env {
| _ => (E, [], [stdout])
}

mktemp {
| _ => (E, [], [stdout])
}

touch {
| _ => (E, [], [stdout])
}
`

// Stdlib returns the standard library's records, parsed once and shared
// (records are immutable once parsed). The command registry files each
// under its name, in the name's entry. It panics if the embedded records
// fail to parse (a build-time bug, caught by tests).
func Stdlib() []*Record { return stdlib() }

var stdlib = sync.OnceValue(func() []*Record {
	recs, err := ParseRecords(stdlibSrc)
	if err != nil {
		panic(fmt.Sprintf("annot: standard library failed to parse: %v", err))
	}
	return recs
})

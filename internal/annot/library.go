package annot

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// registryGen hands out globally unique generation numbers (see
// Generation).
var registryGen atomic.Uint64

// Registry holds annotation records and classifies concrete invocations.
// It plays the role of PaSh's annotation store: records are expressed once
// per command (not per script) and looked up by name during compilation.
type Registry struct {
	mu   sync.RWMutex
	recs map[string]*Record
	gen  uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{recs: map[string]*Record{}, gen: registryGen.Add(1)}
}

// Register parses DSL source and adds all records, replacing any existing
// records with the same name (the §3.2 maintenance story: annotations can
// be updated as commands evolve).
func (r *Registry) Register(src string) error {
	recs, err := ParseRecords(src)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range recs {
		r.recs[rec.Name] = rec
	}
	r.gen = registryGen.Add(1)
	return nil
}

// Replace installs rec as name's record, replacing the record the name
// had together with the refiner it carried. A nil rec leaves the name
// unannotated: the conservative side-effectful default. The session
// layer parses and checks a user's record before it copies the
// registry, so a rejected record leaves the session unchanged.
func (r *Registry) Replace(name string, rec *Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec == nil {
		delete(r.recs, name)
	} else {
		r.recs[name] = rec
	}
	r.gen = registryGen.Add(1)
}

// Generation identifies the registry's record state. It changes on
// every mutation and is globally unique across diverged registries, so
// plan caches can key on it.
func (r *Registry) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// Clone returns an independent copy of the registry (records are
// immutable once parsed, so they are shared; the maps are not). It
// backs the session layer's copy-on-write extension story.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	nr := &Registry{recs: make(map[string]*Record, len(r.recs)), gen: r.gen}
	for k, v := range r.recs {
		nr.recs[k] = v
	}
	return nr
}

// Lookup returns the record for a command name, if any.
func (r *Registry) Lookup(name string) (*Record, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.recs[name]
	return rec, ok
}

// Names returns all annotated command names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.recs))
	for k := range r.recs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Classify resolves an invocation. Unknown commands get the conservative
// default (§5.1 "resorts to conservative defaults if none is found"):
// side-effectful, reading stdin.
func (r *Registry) Classify(name string, argv []string) *Invocation {
	rec, ok := r.Lookup(name)
	if !ok {
		// A user CommandFunc cannot open files, so stdin is the only
		// thing an unannotated name can ever read.
		return &Invocation{
			Name:   name,
			Class:  SideEffectful,
			Opts:   (&Record{Name: name}).ParseArgs(argv),
			Inputs: []StreamRef{{Kind: StreamStdin}},
		}
	}
	inv := rec.Resolve(argv)
	if rec.refine != nil {
		rec.refine(inv)
	}
	return inv
}

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

var (
	stdOnce sync.Once
	stdReg  *Registry
	stdErr  error
)

// StdRegistry returns the shared registry preloaded with the standard
// library annotations. It panics if the embedded records fail to parse
// (a build-time bug, caught by tests).
func StdRegistry() *Registry {
	stdOnce.Do(func() {
		stdReg = NewRegistry()
		stdErr = stdReg.Register(stdlibSrc)
		if stdErr == nil {
			installRefiners(stdReg)
		}
	})
	if stdErr != nil {
		panic(fmt.Sprintf("annot: standard library failed to parse: %v", stdErr))
	}
	return stdReg
}

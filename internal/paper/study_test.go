package paper

import (
	"testing"

	"repro/internal/annot"
)

var studies = map[string]map[annot.Class][]string{"Coreutils": coreutilsStudy, "POSIX": posixStudy}

func TestTable1MatchesPaperCounts(t *testing.T) {
	rows := Table1()
	want := []struct {
		class     annot.Class
		coreutils int
		posix     int
	}{
		{annot.Stateless, 22, 28},
		{annot.Pure, 8, 9},
		{annot.NonParallelizable, 13, 13},
		{annot.SideEffectful, 57, 105},
	}
	for i, w := range want {
		if rows[i].Class != w.class || rows[i].Coreutils != w.coreutils || rows[i].POSIX != w.posix {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}
}

func TestStudyNoDuplicates(t *testing.T) {
	for set, study := range studies {
		seen := map[string]annot.Class{}
		for class, names := range study {
			for _, name := range names {
				if prev, dup := seen[name]; dup {
					t.Errorf("%s: %q in both %v and %v", set, name, prev, class)
				}
				seen[name] = class
			}
		}
	}
}

func TestStudyAgreesWithAnnotations(t *testing.T) {
	// For every command that has both an annotation record and a study
	// entry, the record's default-flag class must match the study class.
	// Refiners judge concrete invocations (xargs without -n 1 is not a
	// map), not the study's question about the command.
	recs := map[string]*annot.Record{}
	for _, rec := range annot.Stdlib() {
		recs[rec.Name] = rec
	}
	for set, study := range studies {
		for class, names := range study {
			for _, name := range names {
				rec, ok := recs[name]
				if !ok {
					continue
				}
				if inv := rec.Resolve(nil); inv.Class != class {
					t.Errorf("%s/%s: annotation default %v != study %v", set, name, inv.Class, class)
				}
			}
		}
	}
}

package pash

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// concurrencyCorpus writes a small per-test data file and returns its
// directory plus the scripts the tenants run. Every script is
// deterministic, so concurrent outputs must be byte-identical to
// sequential ones.
func concurrencyCorpus(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	var sb strings.Builder
	words := []string{"alpha", "beta", "gamma", "delta", "omega", "sigma"}
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "%s %s %d\n", words[i%len(words)], words[(i*5+1)%len(words)], i%97)
	}
	if err := os.WriteFile(filepath.Join(dir, "data.txt"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	scripts := []string{
		"cut -d ' ' -f1 data.txt | sort | uniq -c | sort -rn",
		"grep alpha data.txt | wc -l",
		"for i in 1 2 3 4; do grep gamma data.txt | cut -d ' ' -f2 | sort -u; done",
		"tr a-z A-Z < data.txt | grep ALPHA | head -n 5",
		"sort data.txt | uniq | wc",
		"awk '{print $3}' data.txt | sort -n | tail -n 3",
		"sed 's/alpha/ALPHA/' data.txt | grep ALPHA | wc -l",
		"cat data.txt data.txt | sort | uniq -c | head -n 4",
	}
	return dir, scripts
}

// TestConcurrentSessionRunsSharedScheduler is the acceptance race test:
// many concurrent Session.Run calls — both one shared session and
// separate sessions — multiplexed over one shared scheduler must
// produce byte-identical outputs to sequential runs.
func TestConcurrentSessionRunsSharedScheduler(t *testing.T) {
	dir, scripts := concurrencyCorpus(t)

	// Sequential reference outputs, no scheduler, fresh session each.
	want := make([]string, len(scripts))
	for i, src := range scripts {
		s := NewSession(DefaultOptions(4))
		s.Dir = dir
		var out bytes.Buffer
		if code, err := s.Run(context.Background(), src, strings.NewReader(""), &out, os.Stderr); err != nil || code != 0 {
			t.Fatalf("sequential %q: code=%d err=%v", src, code, err)
		}
		want[i] = out.String()
	}

	sched := NewScheduler(4)
	shared := NewSession(DefaultOptions(4))
	shared.Dir = dir
	shared.UseScheduler(sched)

	const rounds = 3 // 8 scripts x 3 rounds = 24 concurrent runs
	var wg sync.WaitGroup
	errs := make(chan error, len(scripts)*rounds*2)
	for r := 0; r < rounds; r++ {
		for i, src := range scripts {
			// Half the tenants share one session (one plan cache), half
			// bring their own session to the shared scheduler.
			sess := shared
			if (r+i)%2 == 1 {
				sess = NewSession(DefaultOptions(4))
				sess.Dir = dir
				sess.UseScheduler(sched)
			}
			wg.Add(1)
			go func(i int, src string, sess *Session) {
				defer wg.Done()
				var out bytes.Buffer
				code, err := sess.Run(context.Background(), src, strings.NewReader(""), &out, os.Stderr)
				if err != nil || code != 0 {
					errs <- fmt.Errorf("concurrent %q: code=%d err=%v", src, code, err)
					return
				}
				if out.String() != want[i] {
					errs <- fmt.Errorf("concurrent %q diverged:\n--- want:\n%s--- got:\n%s", src, want[i], out.String())
				}
			}(i, src, sess)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := sched.Stats()
	if st.Admitted < int64(len(scripts)*rounds) {
		t.Errorf("scheduler admitted %d scripts, want >= %d", st.Admitted, len(scripts)*rounds)
	}
	if st.ActiveScripts != 0 || st.TokensInUse != 0 {
		t.Errorf("scheduler leaked state: %+v", st)
	}
	cs := shared.PlanCacheStats()
	if cs.Hits == 0 {
		t.Errorf("shared session saw no plan-cache hits across rounds: %+v", cs)
	}
}

// TestConcurrentRegistrationDuringRuns exercises the copy-on-write
// extension path: registering commands and annotations while scripts
// run must not corrupt in-flight executions.
func TestConcurrentRegistrationDuringRuns(t *testing.T) {
	dir, _ := concurrencyCorpus(t)
	s := NewSession(DefaultOptions(2))
	s.Dir = dir

	stop := make(chan struct{})
	registrarDone := make(chan struct{})
	go func() {
		defer close(registrarDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Register(CommandSpec{
				Name:       fmt.Sprintf("custom%d", i%4),
				Run:        func(args []string, stdin io.Reader, stdout io.Writer) error { return nil },
				Annotation: fmt.Sprintf("custom%d { | _ => (S, [stdin], [stdout]) }", i%4),
			}); err != nil {
				t.Errorf("register: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			code, err := s.Run(context.Background(), "grep beta data.txt | wc -l", strings.NewReader(""), &out, os.Stderr)
			if err != nil || code != 0 {
				t.Errorf("run during registration: code=%d err=%v", code, err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-registrarDone

	// The registered command is usable afterward.
	var out bytes.Buffer
	code, err := s.Run(context.Background(), "custom0", strings.NewReader(""), &out, os.Stderr)
	if err != nil || code != 0 {
		t.Errorf("registered command: code=%d err=%v", code, err)
	}
}

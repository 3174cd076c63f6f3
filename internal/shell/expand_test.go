package shell

import (
	"reflect"
	"testing"
	"testing/quick"
)

func expander(vars map[string]string) *Expander {
	env := NewEnv()
	for k, v := range vars {
		env.Set(k, v)
	}
	return &Expander{Env: env}
}

func wordOf(t *testing.T, src string) *Word {
	t.Helper()
	l := mustParse(t, "x "+src)
	s := l.Items[0].Cmd.(*Simple)
	if len(s.Args) != 2 {
		t.Fatalf("source %q is not a single word (%d args)", src, len(s.Args))
	}
	return s.Args[1]
}

func TestExpandLiteral(t *testing.T) {
	x := expander(nil)
	got, err := x.ExpandWord(wordOf(t, "hello"))
	if err != nil || !reflect.DeepEqual(got, []string{"hello"}) {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestExpandParam(t *testing.T) {
	x := expander(map[string]string{"y": "2015"})
	got, err := x.ExpandWord(wordOf(t, "$base/$y"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"/2015"}) {
		t.Fatalf("got %v", got)
	}
}

func TestExpandFieldSplitting(t *testing.T) {
	x := expander(map[string]string{"v": "a b  c"})
	got, err := x.ExpandWord(wordOf(t, "$v"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("unquoted $v split wrong: %v", got)
	}
	got, err = x.ExpandWord(wordOf(t, `"$v"`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"a b  c"}) {
		t.Fatalf("quoted $v must not split: %v", got)
	}
}

func TestExpandEmptyUnquotedVanishes(t *testing.T) {
	x := expander(nil)
	got, err := x.ExpandWord(wordOf(t, "$missing"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty unquoted expansion must produce no fields, got %v", got)
	}
	got, err = x.ExpandWord(wordOf(t, `"$missing"`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{""}) {
		t.Fatalf("empty quoted expansion must produce one empty field, got %v", got)
	}
}

func TestExpandGlue(t *testing.T) {
	x := expander(map[string]string{"a": "1 2"})
	got, err := x.ExpandWord(wordOf(t, "pre$a.post"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"pre1", "2.post"}) {
		t.Fatalf("glue/split interaction wrong: %v", got)
	}
}

func TestExpandBraceRange(t *testing.T) {
	x := expander(nil)
	got, err := x.ExpandWord(wordOf(t, "{3..6}"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"3", "4", "5", "6"}) {
		t.Fatalf("got %v", got)
	}
}

func TestExpandBraceRangeDescending(t *testing.T) {
	x := expander(nil)
	got, err := x.ExpandWord(wordOf(t, "{3..1}"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"3", "2", "1"}) {
		t.Fatalf("got %v", got)
	}
}

func TestExpandBraceList(t *testing.T) {
	x := expander(nil)
	got, err := x.ExpandWord(wordOf(t, "f.{txt,md}"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"f.txt", "f.md"}) {
		t.Fatalf("got %v", got)
	}
}

func TestExpandBracePrefixSuffix(t *testing.T) {
	x := expander(map[string]string{"base": "u"})
	got, err := x.ExpandWord(wordOf(t, "$base/{1..2}/x"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"u/1/x", "u/2/x"}) {
		t.Fatalf("got %v", got)
	}
}

func TestExpandStringNoSplit(t *testing.T) {
	x := expander(map[string]string{"v": "a b"})
	got, err := x.ExpandString(wordOf(t, "$v-end"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "a b-end" {
		t.Fatalf("got %q", got)
	}
}

func TestExpandCmdSubRejected(t *testing.T) {
	x := expander(nil)
	if _, err := x.ExpandWord(wordOf(t, "$(date)")); err == nil {
		t.Fatal("command substitution must be rejected")
	}
}

func TestEnvScoping(t *testing.T) {
	parent := NewEnv()
	parent.Set("a", "1")
	parent.Set("b", "2")
	child := parent.Child()
	child.Set("a", "10")
	if child.Get("a") != "10" || child.Get("b") != "2" {
		t.Errorf("scope chain wrong: a=%q b=%q", child.Get("a"), child.Get("b"))
	}
	if parent.Get("a") != "1" {
		t.Errorf("child set leaked to parent: %q", parent.Get("a"))
	}
	if _, ok := child.Lookup("zzz"); ok {
		t.Error("Lookup of missing var reported present")
	}
}

// Property: joinAndSplit on a single unquoted segment behaves like
// strings.Fields for default-IFS input.
func TestQuickFieldSplitMatchesFields(t *testing.T) {
	f := func(ws []bool, raw string) bool {
		segs := []segment{{text: raw, split: true}}
		var got []string
		for _, f := range joinAndSplit(segs) {
			got = append(got, f.text)
		}
		want := fieldsDefaultIFS(raw)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func fieldsDefaultIFS(s string) []string {
	var out []string
	var cur []byte
	started := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' || c == '\n' {
			if started {
				out = append(out, string(cur))
				cur = cur[:0]
				started = false
			}
			continue
		}
		cur = append(cur, c)
		started = true
	}
	if started {
		out = append(out, string(cur))
	}
	return out
}

// Property: quoted segments are never split and always glue.
func TestQuickQuotedNeverSplits(t *testing.T) {
	f := func(a, b string) bool {
		segs := []segment{{text: a, quoted: true}, {text: b, quoted: true}}
		got := joinAndSplit(segs)
		return len(got) == 1 && got[0].text == a+b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

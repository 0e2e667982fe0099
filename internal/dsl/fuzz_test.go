package dsl

import "testing"

// FuzzParse: Parse never panics, and for every document it accepts,
// Format of the parse is a fixpoint — it parses again and formats to
// the same text. Seeds are the good and bad snippets of docs/DSL.md.
func FuzzParse(f *testing.F) {
	doc := readDoc(f)
	for _, lang := range []string{"sys", "sys-bad"} {
		for _, src := range extractFences(f, doc, lang) {
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(file.Program, file.Topology)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse accepted\n%s\nbut its Format does not parse: %v\n%s", src, err, text)
		}
		if got := Format(again.Program, again.Topology); got != text {
			t.Fatalf("Format is not a fixpoint for\n%s\nfirst:\n%s\nsecond:\n%s", src, text, got)
		}
	})
}

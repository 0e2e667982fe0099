package dsl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// extractFences returns the bodies of fenced code blocks whose info
// string equals lang, in document order.
func extractFences(t testing.TB, doc, lang string) []string {
	t.Helper()
	var out []string
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```"+lang {
			continue
		}
		var body []string
		for i++; i < len(lines); i++ {
			if strings.TrimSpace(lines[i]) == "```" {
				break
			}
			body = append(body, lines[i])
		}
		if i == len(lines) {
			t.Fatalf("unterminated ```%s fence", lang)
		}
		out = append(out, strings.Join(body, "\n")+"\n")
	}
	return out
}

func readDoc(t testing.TB) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "docs", "DSL.md"))
	if err != nil {
		t.Fatalf("docs/DSL.md must exist: %v", err)
	}
	return string(b)
}

// TestDSLDocSnippetsParse round-trips every documented snippet
// through the parser, so docs/DSL.md cannot document syntax the
// parser does not accept. Each good snippet must also survive
// Format→Parse canonicalization.
func TestDSLDocSnippetsParse(t *testing.T) {
	doc := readDoc(t)
	good := extractFences(t, doc, "sys")
	if len(good) < 4 {
		t.Fatalf("docs/DSL.md documents only %d parseable snippets; the reference should show at least 4", len(good))
	}
	for i, src := range good {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("documented snippet %d does not parse: %v\n%s", i+1, err, src)
			continue
		}
		rendered := Format(f.Program, f.Topology)
		f2, err := Parse(rendered)
		if err != nil {
			t.Errorf("snippet %d does not round-trip through Format: %v\n%s", i+1, err, rendered)
			continue
		}
		if Format(f2.Program, f2.Topology) != rendered {
			t.Errorf("snippet %d: Format is not a fixed point", i+1)
		}
	}
}

// TestDSLDocBadSnippetsRejected asserts every sys-bad snippet really
// is rejected, so the doc's error examples stay honest.
func TestDSLDocBadSnippetsRejected(t *testing.T) {
	doc := readDoc(t)
	bad := extractFences(t, doc, "sys-bad")
	if len(bad) < 3 {
		t.Fatalf("docs/DSL.md shows only %d rejected snippets; the reference should show at least 3", len(bad))
	}
	for i, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("sys-bad snippet %d unexpectedly parses:\n%s", i+1, src)
		}
	}
}

// TestDSLDocCoversShippedExamples pins the walkthrough section: every
// shipped example file must be named in the doc and must parse.
func TestDSLDocCoversShippedExamples(t *testing.T) {
	doc := readDoc(t)
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "dsl", "*.sys"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples/dsl/*.sys files found (err %v)", err)
	}
	for _, path := range files {
		name := filepath.Base(path)
		if !strings.Contains(doc, name) {
			t.Errorf("docs/DSL.md never mentions shipped example %s", name)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(string(src)); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
	}
}

// TestDSLDocCoversEveryDirective keeps the reference complete: each
// directive, topology kind, and op form the parser accepts must be
// documented.
func TestDSLDocCoversEveryDirective(t *testing.T) {
	doc := readDoc(t)
	for _, required := range []string{
		"topology linear", "topology ring", "topology mesh",
		"`cell`", "`message`", "`code`", "host",
		"R(MSG)", "W(MSG)", "#",
	} {
		if !strings.Contains(doc, required) {
			t.Errorf("docs/DSL.md does not document %q", required)
		}
	}
}

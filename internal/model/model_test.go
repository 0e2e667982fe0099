package model

import (
	"strings"
	"testing"
)

// twoCell builds a minimal valid program: A: C1→C2, 2 words.
func twoCell(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 2)
	b.WriteN(c1, a, 2)
	b.ReadN(c2, a, 2)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildValidProgram(t *testing.T) {
	p := twoCell(t)
	if p.NumCells() != 2 || p.NumMessages() != 1 {
		t.Fatalf("cells=%d msgs=%d", p.NumCells(), p.NumMessages())
	}
	if p.TotalOps() != 4 {
		t.Fatalf("TotalOps=%d, want 4", p.TotalOps())
	}
	m, ok := p.MessageByName("A")
	if !ok || m.Words != 2 || m.Sender != 0 || m.Receiver != 1 {
		t.Fatalf("MessageByName wrong: %+v ok=%v", m, ok)
	}
	if _, ok := p.MessageByName("nope"); ok {
		t.Fatal("found nonexistent message")
	}
}

// TestZeroBuilder: the zero Builder is ready to use, as its doc
// comment promises — declaring cells, messages and ops initialises
// the builder's maps on first use.
func TestZeroBuilder(t *testing.T) {
	var b Builder
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 2)
	b.Write(c1, a).Write(c1, a)
	b.Read(c2, a).Read(c2, a)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.String(), "C1: W(A) W(A)\nC2: R(A) R(A)\n"; got != want {
		t.Fatalf("program %q, want %q", got, want)
	}
	if m, ok := p.MessageByName("A"); !ok || m.ID != a {
		t.Fatalf("MessageByName(A) = %+v, %v", m, ok)
	}

	var dup Builder
	dup.AddCell("C1")
	dup.AddCell("C1")
	if _, err := dup.Build(); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Fatalf("expected duplicate-cell error from a zero Builder, got %v", err)
	}
}

func TestOpKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("OpKind.String wrong")
	}
}

func TestOpString(t *testing.T) {
	p := twoCell(t)
	if got := p.OpString(Op{Kind: Write, Msg: 0}); got != "W(A)" {
		t.Fatalf("OpString = %q", got)
	}
}

func TestProgramString(t *testing.T) {
	s := twoCell(t).String()
	if !strings.Contains(s, "C1: W(A) W(A)") || !strings.Contains(s, "C2: R(A) R(A)") {
		t.Fatalf("String output:\n%s", s)
	}
}

func TestValidationWordCountMismatch(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 3)
	b.WriteN(c1, a, 2) // one short
	b.ReadN(c2, a, 3)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "writes 2") {
		t.Fatalf("expected write-count error, got %v", err)
	}
}

func TestValidationReadCountMismatch(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	b.Write(c1, a)
	// no read at all
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "reads 0") {
		t.Fatalf("expected read-count error, got %v", err)
	}
}

func TestValidationWriteInWrongCell(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	b.Write(c2, a) // receiver writing its own inbound message
	b.Read(c2, a)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "sender") {
		t.Fatalf("expected wrong-sender error, got %v", err)
	}
}

func TestValidationReadInWrongCell(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	b.Write(c1, a)
	b.Read(c1, a)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "receiver") {
		t.Fatalf("expected wrong-receiver error, got %v", err)
	}
}

func TestValidationDuplicateCellName(t *testing.T) {
	b := NewBuilder()
	b.AddCell("X")
	b.AddCell("X")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Fatalf("expected duplicate-cell error, got %v", err)
	}
}

func TestValidationDuplicateMessageName(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	b.DeclareMessage("A", c1, c2, 1)
	b.DeclareMessage("A", c2, c1, 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate message") {
		t.Fatalf("expected duplicate-message error, got %v", err)
	}
}

func TestValidationSelfMessage(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	b.AddCell("C2")
	b.DeclareMessage("A", c1, c1, 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "sender and receiver") {
		t.Fatalf("expected self-message error, got %v", err)
	}
}

func TestValidationNonpositiveWords(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	b.DeclareMessage("A", c1, c2, 0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "not positive") {
		t.Fatalf("expected word-count error, got %v", err)
	}
}

func TestValidationEmptyProgram(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Fatal("empty program built")
	}
}

func TestHostFlag(t *testing.T) {
	b := NewBuilder()
	h := b.AddHost("Host")
	c := b.AddCell("C1")
	a := b.DeclareMessage("A", h, c, 1)
	b.Write(h, a)
	b.Read(c, a)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Cell(h).Host || p.Cell(c).Host {
		t.Fatal("host flags wrong")
	}
}

func TestAddCellsNames(t *testing.T) {
	b := NewBuilder()
	ids := b.AddCells("P", 3)
	c2 := b.AddCell("Q")
	a := b.DeclareMessage("A", ids[0], c2, 1)
	b.Write(ids[0], a)
	b.Read(c2, a)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"P1", "P2", "P3"} {
		if p.Cell(CellID(i)).Name != want {
			t.Errorf("cell %d named %q, want %q", i, p.Cell(CellID(i)).Name, want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := twoCell(t)
	q := p.Clone()
	q.code[0][0] = Op{Kind: Read, Msg: 0}
	if p.Code(0)[0].Kind != Write {
		t.Fatal("Clone shares op storage with original")
	}
	if q.NumCells() != p.NumCells() || q.NumMessages() != p.NumMessages() {
		t.Fatal("Clone lost structure")
	}
	if _, ok := q.MessageByName("A"); !ok {
		t.Fatal("Clone lost name index")
	}
}

func TestGroupings(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	c3 := b.AddCell("C3")
	a := b.DeclareMessage("A", c1, c2, 1)
	bb := b.DeclareMessage("B", c1, c3, 1)
	c := b.DeclareMessage("C", c3, c1, 1)
	b.Write(c1, a).Write(c1, bb).Read(c1, c)
	b.Read(c2, a)
	b.Read(c3, bb).Write(c3, c)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bySender := p.MessagesBySender()
	if len(bySender[c1]) != 2 || len(bySender[c3]) != 1 {
		t.Fatalf("MessagesBySender wrong: %v", bySender)
	}
	byRecv := p.MessagesByReceiver()
	if len(byRecv[c2]) != 1 || len(byRecv[c3]) != 1 || len(byRecv[c1]) != 1 {
		t.Fatalf("MessagesByReceiver wrong: %v", byRecv)
	}
	names := p.SortedMessageNames()
	if len(names) != 3 || names[0] != "A" || names[2] != "C" {
		t.Fatalf("SortedMessageNames = %v", names)
	}
}

func TestMustBuildPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic")
		}
	}()
	b := NewBuilder()
	b.AddCell("X")
	b.AddCell("X")
	b.MustBuild()
}

// Package model defines the abstract objects of Kung's systolic
// communication model (§2 of the paper): cells, messages, and cell
// programs made of syntactic read/write operations.
//
// A Program is the unit every other package operates on. It is
// immutable after Build; analysis packages (crossoff, label) and the
// run-time packages (assign, sim) consume it without copying.
package model

import (
	"fmt"
	"sort"
	"strings"
)

// CellID identifies a cell (processor) in the array. The host counts
// as a cell (§2.1). IDs are dense indices 0..NumCells-1.
type CellID int

// MessageID identifies a declared message. IDs are dense indices
// 0..NumMessages-1 in declaration order.
type MessageID int

// OpKind distinguishes the two operations the deadlock machinery cares
// about: reads and writes to messages (§2.2).
type OpKind uint8

const (
	// Read is R(X): consume the next word of message X from the front
	// of an input queue.
	Read OpKind = iota
	// Write is W(X): append the next word of message X to the end of
	// an output queue.
	Write
)

// String returns "R" or "W".
func (k OpKind) String() string {
	if k == Read {
		return "R"
	}
	return "W"
}

// Op is a single statement of a cell program: R(Msg) or W(Msg).
type Op struct {
	Kind OpKind
	Msg  MessageID
}

// Message is a declared message: a sequence of Words words traveling
// from Sender to Receiver. All messages are declared before execution
// (§2.1).
type Message struct {
	ID       MessageID
	Name     string
	Sender   CellID
	Receiver CellID
	Words    int
}

// Cell is a processing element. Host marks the distinguished host cell
// (treated as an ordinary cell by all analyses).
type Cell struct {
	ID   CellID
	Name string
	Host bool
}

// Program is a validated systolic program: one op sequence per cell,
// plus the message declarations the ops refer to.
type Program struct {
	cells    []Cell
	messages []Message
	code     [][]Op

	byName map[string]MessageID
}

// NumCells returns the number of cells (including the host).
func (p *Program) NumCells() int { return len(p.cells) }

// NumMessages returns the number of declared messages.
func (p *Program) NumMessages() int { return len(p.messages) }

// Cell returns the cell with the given id.
func (p *Program) Cell(id CellID) Cell { return p.cells[id] }

// Cells returns all cells in id order. The returned slice must not be
// modified.
func (p *Program) Cells() []Cell { return p.cells }

// Message returns the declaration of the given message.
func (p *Program) Message(id MessageID) Message { return p.messages[id] }

// Messages returns all message declarations in id order. The returned
// slice must not be modified.
func (p *Program) Messages() []Message { return p.messages }

// MessageByName looks a message up by its declared name.
func (p *Program) MessageByName(name string) (Message, bool) {
	id, ok := p.byName[name]
	if !ok {
		return Message{}, false
	}
	return p.messages[id], true
}

// Code returns the op sequence of one cell. The returned slice must
// not be modified.
func (p *Program) Code(c CellID) []Op { return p.code[c] }

// TotalOps returns the total number of read and write operations in
// the program.
func (p *Program) TotalOps() int {
	n := 0
	for _, ops := range p.code {
		n += len(ops)
	}
	return n
}

// OpString formats an op using the program's message names, e.g.
// "W(XA)".
func (p *Program) OpString(op Op) string {
	return fmt.Sprintf("%s(%s)", op.Kind, p.messages[op.Msg].Name)
}

// String renders the program as one line per cell, mirroring the
// paper's figures.
func (p *Program) String() string {
	var b strings.Builder
	for c, ops := range p.code {
		fmt.Fprintf(&b, "%s:", p.cells[c].Name)
		for _, op := range ops {
			b.WriteByte(' ')
			b.WriteString(p.OpString(op))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Clone returns a deep copy of the program. Analyses never mutate a
// Program, but generators that derive variants (e.g. mutation-based
// deadlock injection in internal/verify) start from a clone.
func (p *Program) Clone() *Program {
	q := &Program{
		cells:    append([]Cell(nil), p.cells...),
		messages: append([]Message(nil), p.messages...),
		code:     make([][]Op, len(p.code)),
		byName:   make(map[string]MessageID, len(p.byName)),
	}
	for i, ops := range p.code {
		q.code[i] = append([]Op(nil), ops...)
	}
	for k, v := range p.byName {
		q.byName[k] = v
	}
	return q
}

// Builder assembles a Program incrementally and validates it on Build.
// The zero Builder is ready to use.
type Builder struct {
	cells     []Cell
	cellNames map[string]struct{}
	messages  []Message
	code      map[CellID][]Op
	byName    map[string]MessageID
	errs      []error
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return new(Builder) }

// AddCell declares a cell and returns its id. Cell names must be
// unique and non-empty.
func (b *Builder) AddCell(name string) CellID {
	return b.addCell(name, false)
}

// AddHost declares the host cell (§2.1 treats the host as a cell).
func (b *Builder) AddHost(name string) CellID {
	return b.addCell(name, true)
}

func (b *Builder) addCell(name string, host bool) CellID {
	if name == "" {
		b.errs = append(b.errs, fmt.Errorf("model: empty cell name"))
	}
	if _, dup := b.cellNames[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("model: duplicate cell name %q", name))
	}
	if b.cellNames == nil {
		b.cellNames = make(map[string]struct{})
	}
	b.cellNames[name] = struct{}{}
	id := CellID(len(b.cells))
	b.cells = append(b.cells, Cell{ID: id, Name: name, Host: host})
	return id
}

// AddCells declares n cells named prefix1..prefixN and returns their ids.
func (b *Builder) AddCells(prefix string, n int) []CellID {
	ids := make([]CellID, n)
	for i := range ids {
		ids[i] = b.AddCell(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return ids
}

// DeclareMessage declares a message with the given name, endpoints and
// word count, returning its id. Word count must be positive; names
// must be unique.
func (b *Builder) DeclareMessage(name string, sender, receiver CellID, words int) MessageID {
	if name == "" {
		b.errs = append(b.errs, fmt.Errorf("model: empty message name"))
	}
	if _, dup := b.byName[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("model: duplicate message name %q", name))
	}
	if words <= 0 {
		b.errs = append(b.errs, fmt.Errorf("model: message %q: word count %d not positive", name, words))
	}
	if sender == receiver {
		b.errs = append(b.errs, fmt.Errorf("model: message %q: sender and receiver are both cell %d", name, sender))
	}
	id := MessageID(len(b.messages))
	b.messages = append(b.messages, Message{ID: id, Name: name, Sender: sender, Receiver: receiver, Words: words})
	if b.byName == nil {
		b.byName = make(map[string]MessageID)
	}
	b.byName[name] = id
	return id
}

// Write appends a W(msg) op to cell c's program.
func (b *Builder) Write(c CellID, msg MessageID) *Builder {
	return b.emit(c, Op{Kind: Write, Msg: msg})
}

// Read appends an R(msg) op to cell c's program.
func (b *Builder) Read(c CellID, msg MessageID) *Builder {
	return b.emit(c, Op{Kind: Read, Msg: msg})
}

func (b *Builder) emit(c CellID, op Op) *Builder {
	if b.code == nil {
		b.code = make(map[CellID][]Op)
	}
	b.code[c] = append(b.code[c], op)
	return b
}

// WriteN appends n W(msg) ops.
func (b *Builder) WriteN(c CellID, msg MessageID, n int) *Builder {
	for i := 0; i < n; i++ {
		b.Write(c, msg)
	}
	return b
}

// ReadN appends n R(msg) ops.
func (b *Builder) ReadN(c CellID, msg MessageID, n int) *Builder {
	for i := 0; i < n; i++ {
		b.Read(c, msg)
	}
	return b
}

// Build validates and freezes the program. Validation enforces the
// paper's §2 conventions:
//
//   - every W(X) appears only in X's sender program, every R(X) only in
//     X's receiver program;
//   - the number of W(X) ops equals the number of R(X) ops equals X's
//     declared word count (each op moves exactly one word);
//   - cell and message references are in range.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.cells) == 0 {
		return nil, fmt.Errorf("model: program has no cells")
	}
	code := make([][]Op, len(b.cells))
	for c := range code {
		code[c] = append([]Op(nil), b.code[CellID(c)]...)
	}
	writes := make([]int, len(b.messages))
	reads := make([]int, len(b.messages))
	for c, ops := range code {
		for i, op := range ops {
			if int(op.Msg) < 0 || int(op.Msg) >= len(b.messages) {
				return nil, fmt.Errorf("model: cell %s op %d references unknown message %d", b.cells[c].Name, i, op.Msg)
			}
			m := b.messages[op.Msg]
			switch op.Kind {
			case Write:
				if m.Sender != CellID(c) {
					return nil, fmt.Errorf("model: W(%s) in cell %s, but %s's sender is %s",
						m.Name, b.cells[c].Name, m.Name, b.cells[m.Sender].Name)
				}
				writes[op.Msg]++
			case Read:
				if m.Receiver != CellID(c) {
					return nil, fmt.Errorf("model: R(%s) in cell %s, but %s's receiver is %s",
						m.Name, b.cells[c].Name, m.Name, b.cells[m.Receiver].Name)
				}
				reads[op.Msg]++
			default:
				return nil, fmt.Errorf("model: cell %s op %d has invalid kind %d", b.cells[c].Name, i, op.Kind)
			}
		}
	}
	for id, m := range b.messages {
		if writes[id] != m.Words {
			return nil, fmt.Errorf("model: message %s declares %d words but sender writes %d", m.Name, m.Words, writes[id])
		}
		if reads[id] != m.Words {
			return nil, fmt.Errorf("model: message %s declares %d words but receiver reads %d", m.Name, m.Words, reads[id])
		}
	}
	byName := make(map[string]MessageID, len(b.byName))
	for k, v := range b.byName {
		byName[k] = v
	}
	return &Program{
		cells:    append([]Cell(nil), b.cells...),
		messages: append([]Message(nil), b.messages...),
		code:     code,
		byName:   byName,
	}, nil
}

// MustBuild is Build that panics on error; for tests and fixed example
// programs whose validity is static.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// MessagesBySender returns message ids grouped by sender cell.
func (p *Program) MessagesBySender() map[CellID][]MessageID {
	out := make(map[CellID][]MessageID)
	for _, m := range p.messages {
		out[m.Sender] = append(out[m.Sender], m.ID)
	}
	return out
}

// MessagesByReceiver returns message ids grouped by receiver cell.
func (p *Program) MessagesByReceiver() map[CellID][]MessageID {
	out := make(map[CellID][]MessageID)
	for _, m := range p.messages {
		out[m.Receiver] = append(out[m.Receiver], m.ID)
	}
	return out
}

// SortedMessageNames returns all message names sorted, a convenience
// for deterministic rendering.
func (p *Program) SortedMessageNames() []string {
	names := make([]string, 0, len(p.messages))
	for _, m := range p.messages {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

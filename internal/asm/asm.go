// Package asm provides a programmatic assembler for AXP-lite and the
// Program container that the simulators execute.
//
// The paper's microbenchmarks are short assembly kernels whose exact
// instruction placement matters (the C-Ca / C-Cb pair differ only in
// unop padding, which trains the line predictor differently), so the
// assembler gives full control over layout: labels, explicit
// octaword alignment, and unop padding.
package asm

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Default memory layout for assembled programs.
const (
	// TextBase is the byte address of the first instruction.
	TextBase uint64 = 0x0001_0000
	// DataBase is the byte address of the first data object.
	DataBase uint64 = 0x0100_0000
	// StackTop is the initial stack pointer (stack grows down).
	StackTop uint64 = 0x7000_0000
)

// Segment is one initialized region of data memory.
type Segment struct {
	Addr  uint64
	Bytes []byte
}

// Program is an assembled AXP-lite program: code, initialized data,
// and a symbol table. Programs are immutable once assembled, and are
// passed by pointer: each carries its memory image, built once.
type Program struct {
	Name     string
	TextBase uint64
	Code     []isa.Inst // Code[i] is the instruction at TextBase + 4*i
	Segments []Segment
	Symbols  map[string]uint64
	Entry    uint64

	imageOnce sync.Once
	image     *vm.Image
}

// Image returns the program's initial data memory: its segments,
// loaded on the first call and shared by every later one. Safe for
// concurrent use.
func (p *Program) Image() *vm.Image {
	p.imageOnce.Do(func() {
		m := vm.NewMemory()
		for _, seg := range p.Segments {
			m.SetBytes(seg.Addr, seg.Bytes)
		}
		p.image = m.Freeze()
	})
	return p.image
}

// InstAt returns the instruction at byte address pc. ok is false when
// pc falls outside the text segment or is misaligned.
func (p *Program) InstAt(pc uint64) (isa.Inst, bool) {
	if pc < p.TextBase || pc%isa.WordBytes != 0 {
		return isa.Inst{}, false
	}
	i := (pc - p.TextBase) / isa.WordBytes
	if i >= uint64(len(p.Code)) {
		return isa.Inst{}, false
	}
	return p.Code[i], true
}

// TextEnd returns the first byte address past the text segment.
func (p *Program) TextEnd() uint64 {
	return p.TextBase + uint64(len(p.Code))*isa.WordBytes
}

// Symbol returns the address bound to a label.
func (p *Program) Symbol(name string) (uint64, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}

// Disassemble renders the full text segment with addresses and labels.
func (p *Program) Disassemble() string {
	byAddr := make(map[uint64][]string)
	for name, addr := range p.Symbols {
		byAddr[addr] = append(byAddr[addr], name)
	}
	for _, names := range byAddr {
		sort.Strings(names)
	}
	var out []byte
	for i, in := range p.Code {
		pc := p.TextBase + uint64(i)*isa.WordBytes
		for _, name := range byAddr[pc] {
			out = append(out, fmt.Sprintf("%s:\n", name)...)
		}
		out = append(out, fmt.Sprintf("  %#08x  %s\n", pc, in)...)
	}
	return string(out)
}

// Builder assembles a Program incrementally. The zero value is not
// usable; call NewBuilder.
type Builder struct {
	name     string
	code     []isa.Inst
	symbols  map[string]uint64
	dataNext uint64
	segs     []Segment
	fixups   []fixup
	errs     []error
}

type fixupKind uint8

const (
	fixBranch fixupKind = iota // resolve Disp of a branch to a text label
	fixAddrHi                  // resolve LDAH half of a LoadAddr
	fixAddrLo                  // resolve LDA half of a LoadAddr
)

type fixup struct {
	index int // instruction index in code
	label string
	kind  fixupKind
}

// NewBuilder returns an empty Builder for a program with the given
// name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:     name,
		symbols:  make(map[string]uint64),
		dataNext: DataBase,
	}
}

func (b *Builder) errf(format string, args ...interface{}) {
	b.errs = append(b.errs, fmt.Errorf("asm: %s: "+format, append([]interface{}{b.name}, args...)...))
}

// PC returns the byte address of the next instruction to be emitted.
func (b *Builder) PC() uint64 {
	return TextBase + uint64(len(b.code))*isa.WordBytes
}

// Label binds name to the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.symbols[name]; dup {
		b.errf("duplicate label %q", name)
		return
	}
	b.symbols[name] = b.PC()
}

// I emits a raw instruction.
func (b *Builder) I(in isa.Inst) {
	if _, err := in.Encode(); err != nil {
		b.errs = append(b.errs, err)
	}
	b.code = append(b.code, in)
}

// Op emits a three-register operate instruction rc <- ra OP rb.
func (b *Builder) Op(op isa.Op, ra, rb, rc isa.Reg) {
	b.I(isa.Inst{Op: op, Ra: ra, Rb: rb, Rc: rc})
}

// OpI emits a register/literal operate instruction rc <- ra OP lit.
func (b *Builder) OpI(op isa.Op, ra isa.Reg, lit uint8, rc isa.Reg) {
	b.I(isa.Inst{Op: op, Ra: ra, UseLit: true, Lit: lit, Rc: rc})
}

// Mem emits a memory-format instruction (loads, stores, lda, ldah).
func (b *Builder) Mem(op isa.Op, ra isa.Reg, disp int32, rb isa.Reg) {
	b.I(isa.Inst{Op: op, Ra: ra, Rb: rb, Disp: disp})
}

// Br emits a PC-relative branch to a label (resolved at Assemble).
func (b *Builder) Br(op isa.Op, ra isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.code), label: label, kind: fixBranch})
	b.code = append(b.code, isa.Inst{Op: op, Ra: ra})
}

// Jump emits a register-indirect jump: PC <- rb, ra <- return address.
func (b *Builder) Jump(op isa.Op, ra, rb isa.Reg) {
	b.I(isa.Inst{Op: op, Ra: ra, Rb: rb})
}

// Unop emits n universal no-ops (layout padding).
func (b *Builder) Unop(n int) {
	for i := 0; i < n; i++ {
		b.I(isa.Unop)
	}
}

// AlignOctaword pads with unops until the PC is octaword-aligned.
func (b *Builder) AlignOctaword() {
	for b.PC()%isa.OctawordBytes != 0 {
		b.I(isa.Unop)
	}
}

// Halt emits the program-terminating instruction.
func (b *Builder) Halt() { b.I(isa.Halt) }

// LoadImm emits the shortest lda/ldah/sll sequence that places value
// in ra. It clobbers only ra.
func (b *Builder) LoadImm(ra isa.Reg, value int64) {
	// Decompose value into signed 16-bit chunks with carry so that
	// value == sum(chunk[i] << (16*i)) exactly.
	var chunks [4]int32
	v := value
	top := 0
	for i := 0; i < 4; i++ {
		c := int64(int16(v))
		chunks[i] = int32(c)
		if c != 0 {
			top = i
		}
		v = (v - c) >> 16
	}
	switch {
	case top == 0:
		b.Mem(isa.OpLda, ra, chunks[0], isa.Zero)
	case top == 1:
		b.Mem(isa.OpLdah, ra, chunks[1], isa.Zero)
		if chunks[0] != 0 {
			b.Mem(isa.OpLda, ra, chunks[0], ra)
		}
	default:
		b.Mem(isa.OpLda, ra, chunks[top], isa.Zero)
		for i := top - 1; i >= 0; i-- {
			b.OpI(isa.OpSll, ra, 16, ra)
			if chunks[i] != 0 {
				b.Mem(isa.OpLda, ra, chunks[i], ra)
			}
		}
	}
}

// LoadAddr emits an ldah/lda pair that places the address of label in
// ra. The label may be defined later (text labels) or already bound
// (data labels).
func (b *Builder) LoadAddr(ra isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.code), label: label, kind: fixAddrHi})
	b.code = append(b.code, isa.Inst{Op: isa.OpLdah, Ra: ra, Rb: isa.Zero})
	b.fixups = append(b.fixups, fixup{index: len(b.code), label: label, kind: fixAddrLo})
	b.code = append(b.code, isa.Inst{Op: isa.OpLda, Ra: ra, Rb: ra})
}

// dataAlign aligns the data cursor to n bytes.
func (b *Builder) dataAlign(n uint64) {
	if r := b.dataNext % n; r != 0 {
		b.dataNext += n - r
	}
}

// Space reserves size zeroed bytes of data, aligned to align bytes,
// and binds label to its start.
func (b *Builder) Space(label string, size, align uint64) {
	if align == 0 {
		align = 8
	}
	b.dataAlign(align)
	if _, dup := b.symbols[label]; dup {
		b.errf("duplicate label %q", label)
		return
	}
	b.symbols[label] = b.dataNext
	b.segs = append(b.segs, Segment{Addr: b.dataNext, Bytes: make([]byte, size)})
	b.dataNext += size
}

// Quads emits 64-bit little-endian data words bound to label.
func (b *Builder) Quads(label string, values ...uint64) {
	b.Space(label, uint64(len(values))*8, 8)
	seg := &b.segs[len(b.segs)-1]
	for i, v := range values {
		putUint64(seg.Bytes[i*8:], v)
	}
}

func putUint64(p []byte, v uint64) {
	for i := 0; i < 8; i++ {
		p[i] = byte(v >> (8 * i))
	}
}

// Assemble resolves all fixups and returns the finished Program.
func (b *Builder) Assemble() (*Program, error) {
	for _, fx := range b.fixups {
		target, ok := b.symbols[fx.label]
		if !ok {
			b.errf("undefined label %q", fx.label)
			continue
		}
		in := &b.code[fx.index]
		pc := TextBase + uint64(fx.index)*isa.WordBytes
		switch fx.kind {
		case fixBranch:
			d := (int64(target) - int64(pc) - isa.WordBytes) / isa.WordBytes
			if d < isa.MinBranchDisp || d > isa.MaxBranchDisp {
				b.errf("branch to %q out of range (%d words)", fx.label, d)
				continue
			}
			in.Disp = int32(d)
		case fixAddrHi, fixAddrLo:
			lo := int32(int16(target))
			hi := (int64(target) - int64(lo)) >> 16
			if hi < -32768 || hi > 32767 {
				b.errf("address of %q out of ldah range", fx.label)
				continue
			}
			if fx.kind == fixAddrHi {
				in.Disp = int32(hi)
			} else {
				in.Disp = lo
			}
		}
		if _, err := in.Encode(); err != nil {
			b.errs = append(b.errs, err)
		}
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	p := &Program{
		Name:     b.name,
		TextBase: TextBase,
		Code:     append([]isa.Inst(nil), b.code...),
		Segments: append([]Segment(nil), b.segs...),
		Symbols:  make(map[string]uint64, len(b.symbols)),
		Entry:    TextBase,
	}
	for k, v := range b.symbols {
		p.Symbols[k] = v
	}
	if e, ok := p.Symbols["main"]; ok {
		p.Entry = e
	}
	return p, nil
}

// MustAssemble is Assemble but panics on error; for static programs.
func (b *Builder) MustAssemble() *Program {
	p, err := b.Assemble()
	if err != nil {
		panic(err)
	}
	return p
}

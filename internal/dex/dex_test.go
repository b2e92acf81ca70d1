package dex

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// sampleFile builds a small two-class file exercising every opcode family.
func sampleFile() *File {
	b := NewBuilder()
	cls := b.Class("com.example.Main", "android.app.Activity")
	cls.Field("name", "Ljava/lang/String;", ACCPrivate)
	m := cls.Method("onCreate", ACCPublic, 6, "V", "Landroid/os/Bundle;")
	m.ConstString(0, "/data/data/com.example/cache/x.dex").
		ConstString(1, "/data/data/com.example/odex").
		NewInstance(2, "dalvik.system.DexClassLoader").
		InvokeDirect(MethodRef{Class: "dalvik.system.DexClassLoader", Name: "<init>",
			Sig: "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/ClassLoader;)V"},
			2, 0, 1, 0, 0).
		Const(3, 7).
		Const(4, 3).
		Add(5, 3, 4).
		IfNez(5, "done").
		Move(5, 3).
		Label("done").
		ReturnVoid().
		Done()
	helper := b.Class("com.example.util.Helper", "java.lang.Object")
	hm := helper.Method("loop", ACCPublic|ACCStatic, 4, "I", "I")
	hm.Const(0, 0).
		Const(1, 10).
		Label("top").
		IfGe(0, 1, "exit").
		Const(2, 1).
		Add(0, 0, 2).
		Goto("top").
		Label("exit").
		Return(0).
		Done()
	return b.File()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFile()
	data, err := Encode(f)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(normalize(f), normalize(got)) {
		t.Fatalf("round-trip mismatch:\nwant %+v\ngot  %+v", f, got)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	f := sampleFile()
	a, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	f := sampleFile()
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }},
		{"bad version", func(d []byte) []byte { d[4] = 99; return d }},
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"flipped body byte", func(d []byte) []byte { d[20] ^= 0xff; return d }},
		{"empty", func(d []byte) []byte { return nil }},
		{"flipped crc", func(d []byte) []byte { d[len(d)-1] ^= 0xff; return d }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), data...))
			if _, err := Decode(mutated); err == nil {
				t.Fatal("Decode accepted corrupted input")
			}
		})
	}
}

// reseal rewrites the body length and checksum of SDEX-shaped bytes so
// that mutated bodies get past the integrity check and into the parser.
func reseal(data []byte) []byte {
	if len(data) < 13 {
		return data
	}
	out := append([]byte(nil), data...)
	body := out[9 : len(out)-4]
	binary.LittleEndian.PutUint32(out[5:9], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}

// FuzzDecode feeds arbitrary bytes to Decode, which the vetting daemon
// runs on bytecode from untrusted uploads. Each input is tried as given
// and resealed (length and checksum recomputed, as an attacker would).
// Hostile input may be rejected but must never panic, and an accepted
// file validates and survives an encode/decode round trip. The seed
// corpus in testdata/fuzz/FuzzDecode holds a builder-produced file, a
// truncated one and an empty input.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			df, err := Decode(in)
			if err != nil {
				continue
			}
			if err := df.Validate(); err != nil {
				t.Fatalf("Decode accepted an invalid file: %v", err)
			}
			enc, err := Encode(df)
			if err != nil {
				t.Fatalf("decoded file does not re-encode: %v", err)
			}
			back, err := Decode(enc)
			if err != nil {
				t.Fatalf("re-encoded file does not decode: %v", err)
			}
			if !reflect.DeepEqual(normalize(df), normalize(back)) {
				t.Fatalf("round trip changed the file:\nwant %+v\ngot  %+v", df, back)
			}
		}
	})
}

func TestValidateCatchesBadBranch(t *testing.T) {
	f := &File{Classes: []*Class{{
		Name:  "a.B",
		Super: "java.lang.Object",
		Methods: []*Method{{
			Name: "m", Return: "V", Registers: 1,
			Code: []Instruction{{Op: OpGoto, Target: 5}, {Op: OpReturnVoid}},
		}},
	}}}
	if err := f.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range branch target")
	}
}

func TestValidateCatchesBadRegister(t *testing.T) {
	f := &File{Classes: []*Class{{
		Name:  "a.B",
		Super: "java.lang.Object",
		Methods: []*Method{{
			Name: "m", Return: "V", Registers: 1,
			Code: []Instruction{{Op: OpConst, A: 3, Value: 1}, {Op: OpReturnVoid}},
		}},
	}}}
	if err := f.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range register")
	}
}

func TestDisassembleAssembleRoundTrip(t *testing.T) {
	f := sampleFile()
	texts := Disassemble(f)
	if len(texts) != len(f.Classes) {
		t.Fatalf("Disassemble produced %d classes, want %d", len(texts), len(f.Classes))
	}
	for _, c := range f.Classes {
		src, ok := texts[c.Name]
		if !ok {
			t.Fatalf("missing disassembly for %s", c.Name)
		}
		got, err := Assemble(src)
		if err != nil {
			t.Fatalf("Assemble(%s): %v\nsource:\n%s", c.Name, err, src)
		}
		if !reflect.DeepEqual(normalizeClass(c), normalizeClass(got)) {
			t.Fatalf("smali round-trip mismatch for %s:\nwant %+v\ngot  %+v\nsource:\n%s",
				c.Name, c, got, src)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"no class", "hello"},
		{"bad directive", ".class public La/B;\n.super Ljava/lang/Object;\n.bogus x"},
		{"unknown label", ".class public La/B;\n.super Ljava/lang/Object;\n" +
			".method public m()V\n    .registers 1\n    goto :nowhere\n.end method"},
		{"unterminated method", ".class public La/B;\n.super Ljava/lang/Object;\n" +
			".method public m()V\n    .registers 1\n    return-void"},
		{"bad mnemonic", ".class public La/B;\n.super Ljava/lang/Object;\n" +
			".method public m()V\n    .registers 1\n    frobnicate v0\n.end method"},
		{"bad register", ".class public La/B;\n.super Ljava/lang/Object;\n" +
			".method public m()V\n    .registers 1\n    move x0, v1\n.end method"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Assemble(tc.src); err == nil {
				t.Fatal("Assemble accepted invalid source")
			}
		})
	}
}

func TestMethodDescriptor(t *testing.T) {
	m := &Method{Name: "f", Params: []string{"Ljava/lang/String;", "I", "[B"}, Return: "V"}
	if got, want := m.Descriptor(), "(Ljava/lang/String;I[B)V"; got != want {
		t.Fatalf("Descriptor() = %q, want %q", got, want)
	}
}

func TestSplitDescriptors(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"I", []string{"I"}},
		{"Ljava/lang/String;I[B", []string{"Ljava/lang/String;", "I", "[B"}},
		{"[[Ljava/lang/Object;J", []string{"[[Ljava/lang/Object;", "J"}},
	}
	for _, tc := range tests {
		got, err := splitDescriptors(tc.in)
		if err != nil {
			t.Fatalf("splitDescriptors(%q): %v", tc.in, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("splitDescriptors(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"L", "Q", "[", "Lfoo"} {
		if _, err := splitDescriptors(bad); err == nil {
			t.Fatalf("splitDescriptors(%q) accepted invalid input", bad)
		}
	}
}

func TestJavaDescConversion(t *testing.T) {
	if got := JavaToDesc("com.example.Main"); got != "Lcom/example/Main;" {
		t.Fatalf("JavaToDesc = %q", got)
	}
	if got := DescToJava("Lcom/example/Main;"); got != "com.example.Main" {
		t.Fatalf("DescToJava = %q", got)
	}
	if got := DescToJava("I"); got != "I" {
		t.Fatalf("DescToJava on primitive = %q", got)
	}
}

func TestBuildCFG(t *testing.T) {
	f := sampleFile()
	m := f.FindClass("com.example.util.Helper").FindMethod("loop", "")
	g := BuildCFG(m)
	if len(g.Blocks) != 4 {
		t.Fatalf("loop CFG has %d blocks, want 4: %s", len(g.Blocks), g)
	}
	// Every non-terminator block must have at least one successor.
	for _, b := range g.Blocks {
		last := m.Code[b.End-1]
		if !last.Op.IsTerminator() && !last.Op.IsConditional() && len(b.Succs) == 0 && b.End < len(m.Code) {
			t.Fatalf("block %d has no successors: %s", b.Index, g)
		}
	}
	reach := g.Reachable()
	if len(reach) != len(g.Blocks) {
		t.Fatalf("reachable %d blocks, want all %d", len(reach), len(g.Blocks))
	}
}

func TestBuildCFGEmptyMethod(t *testing.T) {
	g := BuildCFG(&Method{Name: "native", Return: "V"})
	if len(g.Blocks) != 0 {
		t.Fatalf("empty method produced %d blocks", len(g.Blocks))
	}
	if len(g.Reachable()) != 0 {
		t.Fatal("empty method has reachable blocks")
	}
}

func TestOptimizeStripsNops(t *testing.T) {
	b := NewBuilder()
	m := b.Class("a.B", "java.lang.Object").Method("m", ACCPublic, 2, "V")
	m.Nop().
		Const(0, 1).
		Nop().
		IfNez(0, "end").
		Nop().
		Const(1, 2).
		Label("end").
		ReturnVoid().
		Done()
	data, err := Optimize(b.File())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !IsOptimized(data) {
		t.Fatal("Optimize output missing ODEX magic")
	}
	opt, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode optimized: %v", err)
	}
	om := opt.Classes[0].Methods[0]
	for _, in := range om.Code {
		if in.Op == OpNop {
			t.Fatal("Optimize left a nop in place")
		}
	}
	// Branch must retarget the return-void, now at index 3.
	if om.Code[1].Op != OpIfNez || om.Code[1].Target != 3 {
		t.Fatalf("branch not remapped: %+v", om.Code)
	}
}

func TestStringsAndRefs(t *testing.T) {
	f := sampleFile()
	strs := f.Strings()
	if len(strs) != 2 || !strings.HasSuffix(strs[0], "x.dex") {
		t.Fatalf("Strings() = %v", strs)
	}
	refs := f.InvokedRefs()
	if len(refs) != 1 || refs[0].Class != "dalvik.system.DexClassLoader" {
		t.Fatalf("InvokedRefs() = %v", refs)
	}
}

func TestIdentifiers(t *testing.T) {
	f := sampleFile()
	ids := Identifiers(f)
	want := map[string]bool{"com": true, "example": true, "Main": true,
		"util": true, "Helper": true, "onCreate": true, "loop": true, "name": true}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected identifier %q in %v", id, ids)
		}
		delete(want, id)
	}
	if len(want) != 0 {
		t.Fatalf("missing identifiers: %v (got %v)", want, ids)
	}
}

func TestAccessFlagsString(t *testing.T) {
	f := ACCPublic | ACCStatic | ACCFinal
	if got := f.String(); got != "public static final" {
		t.Fatalf("AccessFlags.String() = %q", got)
	}
	if got := AccessFlags(0).String(); got != "" {
		t.Fatalf("zero flags = %q", got)
	}
}

// randFile builds a structurally valid random file for property testing.
func randFile(r *rand.Rand) *File {
	b := NewBuilder()
	nClasses := 1 + r.Intn(4)
	for ci := 0; ci < nClasses; ci++ {
		cls := b.Class(randIdent(r)+"."+randIdent(r), "java.lang.Object")
		if r.Intn(2) == 0 {
			cls.Field(randIdent(r), "I", ACCPrivate)
		}
		nMethods := 1 + r.Intn(3)
		for mi := 0; mi < nMethods; mi++ {
			regs := 4 + r.Intn(4)
			m := cls.Method(randIdent(r), ACCPublic, regs, "V")
			nInstr := 1 + r.Intn(12)
			for k := 0; k < nInstr; k++ {
				switch r.Intn(7) {
				case 0:
					m.Const(r.Intn(regs), int64(r.Intn(1000)-500))
				case 1:
					m.ConstString(r.Intn(regs), randIdent(r))
				case 2:
					m.Move(r.Intn(regs), r.Intn(regs))
				case 3:
					m.Add(r.Intn(regs), r.Intn(regs), r.Intn(regs))
				case 4:
					m.InvokeStatic(MethodRef{Class: "java.lang.System",
						Name: randIdent(r), Sig: "()V"})
				case 5:
					m.NewInstance(r.Intn(regs), randIdent(r))
				case 6:
					m.Nop()
				}
			}
			m.ReturnVoid().Done()
		}
	}
	return b.File()
}

func randIdent(r *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	n := 1 + r.Intn(8)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(letters[r.Intn(len(letters))])
	}
	return sb.String()
}

func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randFile(r))
		},
	}
	prop := func(f *File) bool {
		data, err := Encode(f)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(f), normalize(got))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySmaliRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 30,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randFile(r))
		},
	}
	prop := func(f *File) bool {
		for _, c := range f.Classes {
			got, err := Assemble(DisassembleClass(c))
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(normalizeClass(c), normalizeClass(got)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCFGCoversAllInstructions(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randFile(r))
		},
	}
	prop := func(f *File) bool {
		for _, c := range f.Classes {
			for _, m := range c.Methods {
				g := BuildCFG(m)
				covered := 0
				prevEnd := 0
				for _, b := range g.Blocks {
					if b.Start != prevEnd || b.End <= b.Start {
						return false // blocks must tile the body
					}
					covered += b.End - b.Start
					prevEnd = b.End
				}
				if covered != len(m.Code) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// normalize zeroes representation-only differences (nil vs empty slices).
func normalize(f *File) *File {
	nf := &File{}
	for _, c := range f.Classes {
		nf.Classes = append(nf.Classes, normalizeClass(c))
	}
	return nf
}

func normalizeClass(c *Class) *Class {
	nc := *c
	if len(nc.Interfaces) == 0 {
		nc.Interfaces = nil
	}
	nc.Fields = append([]*Field(nil), c.Fields...)
	if len(nc.Fields) == 0 {
		nc.Fields = nil
	}
	nc.Methods = nil
	for _, m := range c.Methods {
		nm := *m
		if len(nm.Params) == 0 {
			nm.Params = nil
		}
		if len(nm.Code) == 0 {
			nm.Code = nil
		}
		for i := range nm.Code {
			if len(nm.Code[i].Args) == 0 {
				nm.Code[i].Args = nil
			}
		}
		nc.Methods = append(nc.Methods, &nm)
	}
	return &nc
}

func TestSummary(t *testing.T) {
	f := sampleFile()
	s := Summary(f)
	if !strings.Contains(s, "2 classes") || !strings.Contains(s, "methods") {
		t.Fatalf("Summary = %q", s)
	}
}

func TestOpcodeStrings(t *testing.T) {
	if OpConstString.String() != "const-string" || Opcode(200).String() != "op?" {
		t.Fatal("opcode names wrong")
	}
	if Opcode(200).Valid() {
		t.Fatal("invalid opcode reported valid")
	}
	if !OpGoto.IsTerminator() || OpIfEq.IsTerminator() {
		t.Fatal("terminator classification wrong")
	}
	if !OpIfEqz.IsConditional() || OpGoto.IsConditional() {
		t.Fatal("conditional classification wrong")
	}
}

func TestMethodRefFieldRefString(t *testing.T) {
	mr := MethodRef{Class: "a.B", Name: "m", Sig: "()V"}
	if mr.String() != "La/B;->m()V" {
		t.Fatalf("MethodRef.String = %q", mr.String())
	}
	fr := FieldRef{Class: "a.B", Name: "f", Type: "I"}
	if fr.String() != "La/B;->f:I" {
		t.Fatalf("FieldRef.String = %q", fr.String())
	}
}

func TestClassHelpers(t *testing.T) {
	f := sampleFile()
	c := f.FindClass("com.example.Main")
	if c.Package() != "com.example" {
		t.Fatalf("Package = %q", c.Package())
	}
	if (&Class{Name: "Bare"}).Package() != "" {
		t.Fatal("default package not empty")
	}
	if c.FindField("name") == nil || c.FindField("nope") != nil {
		t.Fatal("FindField wrong")
	}
	if f.FindClass("missing") != nil {
		t.Fatal("FindClass found missing")
	}
	if c.FindMethod("onCreate", "(Landroid/os/Bundle;)V") == nil {
		t.Fatal("FindMethod with sig failed")
	}
	if c.FindMethod("onCreate", "(I)V") != nil {
		t.Fatal("FindMethod matched wrong sig")
	}
}

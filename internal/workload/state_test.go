package workload

import (
	"reflect"
	"testing"
)

// A generator restored from a mid-run capture, wrong-path excursion
// included, continues with exactly the stream the original produces.
func TestGeneratorCaptureRestoreContinues(t *testing.T) {
	p, _ := ByName("gcc")
	orig := NewGenerator(p, 7)
	for i := 0; i < 3000; i++ {
		orig.Next()
	}
	orig.StartWrongPath(CodeBase + 4096)
	for i := 0; i < 40; i++ {
		orig.NextWrongPath()
	}
	st := orig.CaptureState()
	twin := NewGenerator(p, 7)
	if err := twin.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := twin.CaptureState(); !reflect.DeepEqual(got, st) {
		t.Fatal("re-captured state differs from the restored one")
	}
	orig.EndWrongPath()
	twin.EndWrongPath()
	for i := 0; i < 3000; i++ {
		a, b := orig.Next(), twin.Next()
		if *a != *b {
			t.Fatalf("instruction %d after restore: original %+v, restored %+v", i, *a, *b)
		}
	}
}

// A snapshot naming a static instruction outside the code footprint or off
// the 4-byte grid, or carrying a loop count no run can reach, is refused
// with an error rather than a panic or a silent truncation.
func TestRestoreRejectsBadProgramPC(t *testing.T) {
	p, _ := ByName("li")
	g := NewGenerator(p, 3)
	for i := 0; i < 500; i++ {
		g.Next()
	}
	st := g.CaptureState()
	end := CodeBase + uint64(p.CodeFootprint)
	for name, pc := range map[string]uint64{
		"below code":  CodeBase - 4,
		"at code end": end,
		"far above":   end + 1<<40,
		"unaligned":   CodeBase + 2,
	} {
		bad := st
		bad.Program = append([]StaticInstrState(nil), st.Program...)
		bad.Program[0].PC = pc
		if err := NewGenerator(p, 3).RestoreState(bad); err == nil {
			t.Errorf("%s: restore of pc %#x accepted", name, pc)
		}
	}
	bad := st
	bad.Program = append([]StaticInstrState(nil), st.Program...)
	bad.Program[0].LoopCount = 1 << 40
	if err := NewGenerator(p, 3).RestoreState(bad); err == nil {
		t.Error("restore of an out-of-range loop count accepted")
	}
}

// Footprints must hold whole 4-byte instructions: the static program is
// indexed by instruction, so a ragged footprint would alias PCs.
func TestValidateRejectsRaggedFootprint(t *testing.T) {
	p, _ := ByName("li")
	p.CodeFootprint += 2
	if err := p.Validate(); err == nil {
		t.Error("footprint not a multiple of 4 accepted")
	}
}
